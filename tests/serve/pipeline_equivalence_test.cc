// The pipelined coordinator, proven bitwise epoch by epoch: the
// coordinator prepares drain N+1 on its one plane while persistent shard
// executors absorb drain N from that drain's immutable tables, and it
// publishes EXACTLY the epochs the deterministic ApplyOnce coordinator
// publishes — same links, scores, labels, weights and design matrices at
// 1, 2 and 4 shards, on grow-only AND churn streams, with factor counters
// pinning one refit per shard per published epoch. The hand-off itself is
// also checked without threads: a shard absorbing held tables after the
// plane has moved on stays bitwise a lock-step run.
//
// The overlap itself is asserted through IngestStats::max_inflight_planes:
// a backlogged pipelined run must reach 2 drains in flight — prepare of
// drain N+1 running while drain N is still being absorbed.

#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"
#include "tests/linalg/csr_bitwise.h"

namespace activeiter {
namespace {

DeltaStream CarvedStream(uint64_t seed, size_t batches,
                         double churn_fraction = 0.0) {
  auto full = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = batches;
  carve.initial_fraction = 0.4;
  carve.np_ratio = 4.0;
  carve.churn_fraction = churn_fraction;
  carve.seed = seed ^ 0x5EEDULL;
  auto stream = CarveDeltaStream(full.value(), carve);
  EXPECT_TRUE(stream.ok());
  return std::move(stream).ValueOrDie();
}

void ExpectSnapshotsBitwiseEqual(const ModelSnapshot& a,
                                 const ModelSnapshot& b,
                                 const std::string& what) {
  EXPECT_EQ(a.epoch, b.epoch) << what;
  ASSERT_EQ(a.links, b.links) << what;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << what;
  for (size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores(i), b.scores(i)) << what << " score " << i;
    EXPECT_EQ(a.y(i), b.y(i)) << what << " label " << i;
  }
  ASSERT_EQ(a.w.size(), b.w.size()) << what;
  for (size_t i = 0; i < a.w.size(); ++i) {
    EXPECT_EQ(a.w(i), b.w(i)) << what << " weight " << i;
  }
  EXPECT_EQ(a.links_of_first, b.links_of_first) << what;  // ranked order
}

void ExpectAllShardsBitwiseEqual(const ShardedIngestor& reference,
                                 const ShardedIngestor& pipelined,
                                 const std::string& what) {
  ASSERT_EQ(reference.num_shards(), pipelined.num_shards());
  for (size_t i = 0; i < reference.num_shards(); ++i) {
    auto ref_snap = reference.shard_service(i).snapshot();
    auto pipe_snap = pipelined.shard_service(i).snapshot();
    ASSERT_NE(ref_snap, nullptr) << what;
    ASSERT_NE(pipe_snap, nullptr) << what;
    ExpectSnapshotsBitwiseEqual(*ref_snap, *pipe_snap,
                                what + " shard " + std::to_string(i));
    EXPECT_TRUE(CsrBitwiseEqual(reference.shard(i).design(),
                                pipelined.shard(i).design()))
        << what << " shard " << i;
  }
}

class PipelineEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PipelineEquivalenceTest, PipelinedMatchesSerialAtEveryEpoch) {
  const size_t n = GetParam();
  constexpr size_t kBatches = 4;
  DeltaStream s_ref = CarvedStream(83, kBatches);
  DeltaStream s_pipe = CarvedStream(83, kBatches);

  IngestorOptions ref_options;
  ref_options.partition.num_shards = n;
  ShardedIngestor reference(std::move(s_ref.initial), s_ref.train_anchors,
                            std::move(s_ref.initial_candidates),
                            ref_options);
  ASSERT_TRUE(reference.Start().ok());

  IngestorOptions pipe_options = ref_options;
  pipe_options.drain = DrainPolicy::kPerDelta;
  ShardedIngestor pipelined(std::move(s_pipe.initial), s_pipe.train_anchors,
                            std::move(s_pipe.initial_candidates),
                            pipe_options);
  ASSERT_TRUE(pipelined.Start().ok());
  pipelined.StartBackground();

  // Flush after every submit: each epoch is compared the moment both
  // sides published it, so a divergence is pinned to its batch.
  for (size_t b = 0; b <= kBatches; ++b) {
    ExpectAllShardsBitwiseEqual(reference, pipelined,
                                "epoch " + std::to_string(b));
    if (b < kBatches) {
      ASSERT_TRUE(reference.ApplyOnce(s_ref.batches[b]).ok());
      pipelined.Submit(std::move(s_pipe.batches[b]));
      pipelined.Flush();
    }
  }
  pipelined.Stop();
  ASSERT_TRUE(pipelined.background_status().ok());

  const IngestStats stats = pipelined.stats();
  EXPECT_EQ(stats.deltas_applied, kBatches);
  EXPECT_EQ(stats.coalesced_batches, 0u);
  EXPECT_EQ(stats.epochs_published, kBatches + 1);
  // One refit per shard per published epoch and no extra model work: the
  // ring replays graph deltas only.
  EXPECT_EQ(stats.full_factorisations, n * (kBatches + 1));
  EXPECT_EQ(reference.stats().full_factorisations, n * (kBatches + 1));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, PipelineEquivalenceTest,
                         ::testing::Values(1, 2, 4));

TEST(PipelineEquivalenceTest, ChurnStreamStaysBitwiseUnderPipelining) {
  constexpr size_t kBatches = 4;
  DeltaStream s_ref = CarvedStream(89, kBatches, /*churn_fraction=*/0.4);
  DeltaStream s_pipe = CarvedStream(89, kBatches, /*churn_fraction=*/0.4);

  IngestorOptions ref_options;
  ref_options.partition.num_shards = 2;
  ShardedIngestor reference(std::move(s_ref.initial), s_ref.train_anchors,
                            std::move(s_ref.initial_candidates),
                            ref_options);
  ASSERT_TRUE(reference.Start().ok());

  IngestorOptions pipe_options = ref_options;
  pipe_options.drain = DrainPolicy::kPerDelta;
  ShardedIngestor pipelined(std::move(s_pipe.initial), s_pipe.train_anchors,
                            std::move(s_pipe.initial_candidates),
                            pipe_options);
  ASSERT_TRUE(pipelined.Start().ok());
  pipelined.StartBackground();

  for (size_t b = 0; b <= kBatches; ++b) {
    ExpectAllShardsBitwiseEqual(reference, pipelined,
                                "churn epoch " + std::to_string(b));
    if (b < kBatches) {
      ASSERT_TRUE(reference.ApplyOnce(s_ref.batches[b]).ok());
      pipelined.Submit(std::move(s_pipe.batches[b]));
      pipelined.Flush();
    }
  }
  pipelined.Stop();
  ASSERT_TRUE(pipelined.background_status().ok());
  EXPECT_EQ(pipelined.stats().rows_removed, reference.stats().rows_removed);
  EXPECT_GT(pipelined.stats().rows_removed, 0u);  // the stream churned
}

TEST(PipelineEquivalenceTest, BackloggedPipelineOverlapsAndStaysBitwise) {
  constexpr size_t kBatches = 8;
  DeltaStream s_ref = CarvedStream(97, kBatches);
  DeltaStream s_pipe = CarvedStream(97, kBatches);

  IngestorOptions ref_options;
  ref_options.partition.num_shards = 2;
  ShardedIngestor reference(std::move(s_ref.initial), s_ref.train_anchors,
                            std::move(s_ref.initial_candidates),
                            ref_options);
  ASSERT_TRUE(reference.Start().ok());
  for (const ServeDelta& batch : s_ref.batches) {
    ASSERT_TRUE(reference.ApplyOnce(batch).ok());
  }

  // A standing backlog with per-delta drains: the coordinator must keep
  // preparing drain N+1 while the executors absorb drain N.
  IngestorOptions pipe_options = ref_options;
  pipe_options.drain = DrainPolicy::kPerDelta;
  ShardedIngestor pipelined(std::move(s_pipe.initial), s_pipe.train_anchors,
                            std::move(s_pipe.initial_candidates),
                            pipe_options);
  ASSERT_TRUE(pipelined.Start().ok());
  pipelined.StartBackground();
  for (ServeDelta& batch : s_pipe.batches) {
    pipelined.Submit(std::move(batch));
  }
  pipelined.Flush();
  pipelined.Stop();
  ASSERT_TRUE(pipelined.background_status().ok());

  ExpectAllShardsBitwiseEqual(reference, pipelined, "final epoch");
  const IngestStats stats = pipelined.stats();
  EXPECT_EQ(stats.deltas_applied, kBatches);
  EXPECT_EQ(stats.epochs_published, kBatches + 1);
  EXPECT_EQ(stats.full_factorisations, 2 * (kBatches + 1));
  // The overlap proof: at least one drain was being prepared while an
  // earlier one was still absorbing. (The worker dispatches and loops
  // straight into the next take; absorbs span a realign + publish, so a
  // backlog this deep cannot retire every drain inside that window.)
  EXPECT_GE(stats.max_inflight_planes, 2u);
  // The ring bounds the pipeline: never more than depth + 1 in flight.
  EXPECT_LE(stats.max_inflight_planes, 2u);
}

TEST(PipelineEquivalenceTest, BackgroundThenApplyOnceResumesDeterministically) {
  constexpr size_t kBatches = 6;
  DeltaStream s_ref = CarvedStream(103, kBatches);
  DeltaStream s_pipe = CarvedStream(103, kBatches);

  IngestorOptions ref_options;
  ref_options.partition.num_shards = 2;
  ShardedIngestor reference(std::move(s_ref.initial), s_ref.train_anchors,
                            std::move(s_ref.initial_candidates),
                            ref_options);
  ASSERT_TRUE(reference.Start().ok());
  for (const ServeDelta& batch : s_ref.batches) {
    ASSERT_TRUE(reference.ApplyOnce(batch).ok());
  }

  // The first half runs pipelined, then the second half goes through
  // ApplyOnce on the same plane — the background → deterministic seam
  // must also be bitwise.
  IngestorOptions pipe_options = ref_options;
  pipe_options.drain = DrainPolicy::kPerDelta;
  ShardedIngestor pipelined(std::move(s_pipe.initial), s_pipe.train_anchors,
                            std::move(s_pipe.initial_candidates),
                            pipe_options);
  ASSERT_TRUE(pipelined.Start().ok());
  pipelined.StartBackground();
  for (size_t b = 0; b < kBatches / 2; ++b) {
    pipelined.Submit(std::move(s_pipe.batches[b]));
  }
  pipelined.Flush();
  pipelined.Stop();
  ASSERT_TRUE(pipelined.background_status().ok());
  for (size_t b = kBatches / 2; b < kBatches; ++b) {
    ASSERT_TRUE(pipelined.ApplyOnce(s_pipe.batches[b]).ok());
  }

  ExpectAllShardsBitwiseEqual(reference, pipelined, "resumed final epoch");
  EXPECT_LE(pipelined.stats().max_inflight_planes, 2u);
  EXPECT_EQ(pipelined.stats().full_factorisations, 2 * (kBatches + 1));
}

// The pipeline's hand-off, without threads: drain N+1 is applied to and
// refreshed on the plane BEFORE the shard absorbs drain N from the tables
// it held, and the shard stays bitwise a lock-step run's at every epoch.
TEST(PipelineEquivalenceTest, HeldTablesAbsorbBitwiseAfterThePlaneMovesOn) {
  constexpr size_t kBatches = 4;
  DeltaStream s = CarvedStream(109, kBatches, /*churn_fraction=*/0.4);
  IngestorOptions options;  // one shard: its slice is the whole set
  std::vector<size_t> ids(s.initial_candidates.size());
  std::iota(ids.begin(), ids.end(), size_t{0});
  std::vector<ServeDelta> routed;
  size_t next_global_id = s.initial_candidates.size();
  for (const ServeDelta& batch : s.batches) {
    routed.push_back(
        RouteServeDelta(batch, options.partition, next_global_id).front());
    next_global_id += batch.new_candidates.size();
  }

  FeaturePlane ref_plane(s.initial, s.train_anchors, options.serve.features);
  AlignmentService ref_service;
  ModelShard reference(s.initial_candidates, ids, &ref_service, options);
  ASSERT_TRUE(reference.Start(ref_plane).ok());

  FeaturePlane plane(s.initial, s.train_anchors, options.serve.features);
  AlignmentService service;
  ModelShard shard(s.initial_candidates, ids, &service, options);
  ASSERT_TRUE(shard.Start(plane).ok());

  // What the coordinator hands an executor: the tables of one prepared
  // drain.
  auto prepare = [](FeaturePlane& p, const ServeDelta& batch) {
    EXPECT_TRUE(ValidateCandidateEndpoints(p.pair(), batch).ok());
    EXPECT_TRUE(p.Apply(batch.graph).ok());
    p.Refresh();
    return p.tables();
  };

  std::shared_ptr<const ProximityTables> held = prepare(plane, routed[0]);
  for (size_t b = 0; b < kBatches; ++b) {
    std::shared_ptr<const ProximityTables> next;
    if (b + 1 < kBatches) {
      next = prepare(plane, routed[b + 1]);
      ASSERT_NE(next, held);
    }
    ASSERT_TRUE(
        shard.ApplySlice(*held, routed[b], /*submitted_batches=*/1).ok());

    ASSERT_TRUE(reference
                    .ApplySlice(*prepare(ref_plane, routed[b]), routed[b],
                                /*submitted_batches=*/1)
                    .ok());

    const std::string what = "held-tables epoch " + std::to_string(b + 1);
    ASSERT_NE(service.snapshot(), nullptr);
    ExpectSnapshotsBitwiseEqual(*ref_service.snapshot(), *service.snapshot(),
                                what);
    EXPECT_TRUE(CsrBitwiseEqual(reference.design(), shard.design())) << what;
    EXPECT_EQ(reference.global_ids(), shard.global_ids()) << what;
    held = std::move(next);
  }
  EXPECT_GT(shard.stats().rows_removed, 0u);  // the stream churned
}

}  // namespace
}  // namespace activeiter
