// The sharding semantics, proven epoch by epoch: every shard of a
// ShardedIngestor is BITWISE an independent pipeline run over that
// shard's slice alone — its own FeaturePlane and one ModelShard, fed the
// routed sub-batches — at N ∈ {1, 2, 4}, on grow-only and churned
// streams. The plane computes feature state from the graph alone, never
// from the candidate set, so sharding can change nothing but the training
// slice. The router serves the per-shard models under stable global link
// ids; at N = 1 its whole Top-K surface equals the reference service's.
//
// Together these pin down exactly what sharding changes (the training
// slice of the PU alternation) and what it must never change (features,
// ids, epochs, the serving order of each slice).

#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/graph/partition.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"
#include "tests/linalg/csr_bitwise.h"

namespace activeiter {
namespace {

DeltaStream CarvedStream(uint64_t seed, double churn_fraction = 0.0) {
  auto full = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 3;
  carve.initial_fraction = 0.4;
  carve.np_ratio = 5.0;
  carve.churn_fraction = churn_fraction;
  carve.seed = seed ^ 0x5EEDULL;
  auto stream = CarveDeltaStream(full.value(), carve);
  EXPECT_TRUE(stream.ok());
  return std::move(stream).ValueOrDie();
}

/// The per-slice reference: its own FeaturePlane and one ModelShard,
/// advanced step by step through the public calls the coordinator makes
/// (validate, Apply, Refresh, ApplySlice) on the sub-batch RouteServeDelta
/// cut for its slice.
struct SliceReference {
  SliceReference(const DeltaStream& s, CandidateSlice slice,
                 const IngestorOptions& options)
      : plane(s.initial, s.train_anchors, options.serve.features),
        shard(std::move(slice.links), std::move(slice.global_ids), &service,
              options) {}

  Status Apply(const ServeDelta& routed) {
    ACTIVEITER_RETURN_IF_ERROR(
        ValidateCandidateEndpoints(plane.pair(), routed));
    ACTIVEITER_RETURN_IF_ERROR(plane.Apply(routed.graph));
    return shard.ApplySlice(plane, plane.Refresh(), routed,
                            /*submitted_batches=*/1);
  }

  AlignmentService service;
  FeaturePlane plane;
  ModelShard shard;
};

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
}

class ShardedVsIndependentTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(ShardedVsIndependentTest, EveryShardIsBitwiseAnIndependentIngestor) {
  const auto [n, churn] = GetParam();
  DeltaStream s = CarvedStream(47, churn);
  size_t stream_removals = 0;
  for (const ServeDelta& b : s.batches) {
    stream_removals += b.removed_candidates.size();
  }
  if (churn > 0.0) {
    ASSERT_GT(stream_removals, 0u);
  }

  IngestorOptions options;
  options.partition.num_shards = n;

  std::vector<CandidateSlice> slices =
      PartitionCandidates(s.initial_candidates, options.partition);
  std::vector<std::unique_ptr<SliceReference>> reference;
  for (CandidateSlice& slice : slices) {
    reference.push_back(
        std::make_unique<SliceReference>(s, std::move(slice), options));
    ASSERT_TRUE(reference.back()->shard.Start(reference.back()->plane).ok());
  }
  size_t next_global_id = s.initial_candidates.size();
  const size_t users = s.initial.first().NodeCount(NodeType::kUser) + 64;

  ShardedIngestor sharded(std::move(s.initial), s.train_anchors,
                          std::move(s.initial_candidates), options);
  ASSERT_EQ(sharded.num_shards(), n);
  // Before Start the router must refuse, not serve garbage.
  EXPECT_EQ(sharded.backend().epoch(), QueryBackend::kNoEpoch);
  EXPECT_EQ(sharded.backend().TopKFor(0, 3).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sharded.Start().ok());

  for (size_t b = 0; b <= s.batches.size(); ++b) {
    const std::string at = " epoch " + std::to_string(b);
    for (size_t i = 0; i < n; ++i) {
      auto ref_snap = reference[i]->service.snapshot();
      auto shard_snap = sharded.shard_service(i).snapshot();
      ASSERT_NE(ref_snap, nullptr);
      ASSERT_NE(shard_snap, nullptr);
      ExpectSnapshotsBitwiseEqual(*ref_snap, *shard_snap,
                                  "shard " + std::to_string(i) + at);
      EXPECT_TRUE(CsrBitwiseEqual(reference[i]->shard.design(),
                                  sharded.shard(i).design()))
          << "shard " << i << at;
      EXPECT_EQ(reference[i]->shard.global_ids(),
                sharded.shard(i).global_ids());
    }

    if (n == 1) {
      // The full query surface, link ids included: the router answers
      // exactly what the one reference service answers.
      EXPECT_EQ(sharded.backend().epoch(), reference[0]->service.epoch());
      for (NodeId u1 = 0; u1 < users; ++u1) {
        auto ref_top = reference[0]->service.TopKFor(u1, 5);
        auto routed_top = sharded.backend().TopKFor(u1, 5);
        ASSERT_TRUE(ref_top.ok());
        ASSERT_TRUE(routed_top.ok());
        ASSERT_EQ(ref_top.value().size(), routed_top.value().size());
        for (size_t i = 0; i < ref_top.value().size(); ++i) {
          const ScoredLink& p = ref_top.value()[i];
          const ScoredLink& r = routed_top.value()[i];
          EXPECT_EQ(p.link_id, r.link_id) << at;
          EXPECT_EQ(p.u1, r.u1);
          EXPECT_EQ(p.u2, r.u2);
          EXPECT_EQ(p.score, r.score);
          EXPECT_EQ(p.matched, r.matched);
        }
      }
    }

    // The router serves the per-shard models: spot-check that ScorePair
    // lands on the owning shard's numbers and ids are globally stable.
    auto any_snap = sharded.shard_service(0).snapshot();
    if (any_snap->size() > 0) {
      const auto& [u1, u2] = any_snap->links[0];
      auto via_router = sharded.backend().ScorePair(u1, u2);
      auto via_shard =
          reference[options.partition.ShardOfFirstUser(u1)]->service.ScorePair(
              u1, u2);
      ASSERT_TRUE(via_router.ok());
      ASSERT_TRUE(via_shard.ok());
      EXPECT_EQ(via_router.value().link_id, via_shard.value().link_id);
      EXPECT_EQ(via_router.value().score, via_shard.value().score);
    }

    if (b < s.batches.size()) {
      std::vector<ServeDelta> routed = RouteServeDelta(
          s.batches[b], options.partition, next_global_id);
      next_global_id += s.batches[b].new_candidates.size();
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(reference[i]->Apply(routed[i]).ok()) << "shard " << i;
      }
      ASSERT_TRUE(sharded.ApplyOnce(s.batches[b]).ok());
    }
  }
  const IngestStats stats = sharded.stats();
  EXPECT_EQ(stats.deltas_applied, s.batches.size());
  // Every removal found its owning shard, once.
  EXPECT_EQ(stats.rows_removed, stream_removals);
  // One factorisation per shard per published epoch, never more.
  EXPECT_EQ(stats.full_factorisations, n * stats.epochs_published);
}

INSTANTIATE_TEST_SUITE_P(
    ShardCounts, ShardedVsIndependentTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4}),
                       ::testing::Values(0.0, 0.25)),
    [](const auto& info) {
      return "N" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) > 0.0 ? "_churn" : "_grow");
    });

TEST(ShardedEquivalenceTest, GlobalIdsAreStableAcrossShardCounts) {
  // The same pair queried at N=1,2,4 must answer with the SAME global
  // link id — the ids are assigned in submission order, not shard order.
  std::vector<std::unique_ptr<ShardedIngestor>> fleets;
  for (size_t n : {size_t{1}, size_t{2}, size_t{4}}) {
    DeltaStream s = CarvedStream(53);
    IngestorOptions options;
    options.partition.num_shards = n;
    fleets.push_back(std::make_unique<ShardedIngestor>(
        std::move(s.initial), s.train_anchors,
        std::move(s.initial_candidates), options));
    ASSERT_TRUE(fleets.back()->Start().ok());
    for (const ServeDelta& batch : s.batches) {
      ASSERT_TRUE(fleets.back()->ApplyOnce(batch).ok());
    }
  }
  auto base = fleets[0]->shard_service(0).snapshot();
  ASSERT_GT(base->size(), 0u);
  size_t compared = 0;
  for (size_t id = 0; id < base->size(); id += 3) {
    const auto& [u1, u2] = base->links[id];
    auto one = fleets[0]->backend().ScorePair(u1, u2);
    auto two = fleets[1]->backend().ScorePair(u1, u2);
    auto four = fleets[2]->backend().ScorePair(u1, u2);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(two.ok());
    ASSERT_TRUE(four.ok());
    EXPECT_EQ(one.value().link_id, two.value().link_id);
    EXPECT_EQ(one.value().link_id, four.value().link_id);
    ++compared;
  }
  EXPECT_GT(compared, 5u);
}

TEST(ShardedEquivalenceTest, BadBatchRejectsUniformlyAcrossShards) {
  IngestorOptions options;
  options.partition.num_shards = 2;
  DeltaStream s = CarvedStream(59);
  const CandidateLinkSet shard1_links = std::move(
      PartitionCandidates(s.initial_candidates, options.partition)[1].links);
  ASSERT_GT(shard1_links.size(), 0u);
  ASSERT_EQ(options.partition.ShardOfFirstUser(shard1_links.link(0).first),
            1u);

  ServeDelta bad_endpoint;
  bad_endpoint.new_candidates.emplace_back(static_cast<NodeId>(1u << 20), 0);
  // A valid growth batch plus a removal routed to shard 1 that it cannot
  // apply: shard 0's part of the batch is fine, so only resolving every
  // removal before the plane moves keeps shard 0 and the graph still.
  ServeDelta unserved = s.batches[0];
  unserved.removed_candidates.emplace_back(shard1_links.link(0).first,
                                          NodeId{4000000});
  ServeDelta twice = s.batches[0];
  twice.removed_candidates.assign(2, shard1_links.link(0));
  const std::pair<const ServeDelta*, StatusCode> cases[] = {
      {&bad_endpoint, StatusCode::kOutOfRange},
      {&unserved, StatusCode::kNotFound},
      {&twice, StatusCode::kNotFound}};

  for (size_t c = 0; c < std::size(cases); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    DeltaStream fresh = CarvedStream(59);
    ShardedIngestor sharded(std::move(fresh.initial), fresh.train_anchors,
                            std::move(fresh.initial_candidates), options);
    ASSERT_TRUE(sharded.Start().ok());
    const size_t users = sharded.pair().first().NodeCount(NodeType::kUser);
    EXPECT_EQ(sharded.ApplyOnce(*cases[c].first).code(), cases[c].second);
    // Nothing moved anywhere: both shards still serve epoch 0, the graph
    // did not grow, and a valid batch applies cleanly afterwards.
    EXPECT_EQ(sharded.shard_service(0).epoch(), 0u);
    EXPECT_EQ(sharded.shard_service(1).epoch(), 0u);
    EXPECT_EQ(sharded.pair().first().NodeCount(NodeType::kUser), users);
    ASSERT_TRUE(sharded.ApplyOnce(fresh.batches[0]).ok());
    EXPECT_EQ(sharded.backend().epoch(), 1u);
    EXPECT_EQ(sharded.shard_service(0).epoch(), 1u);
    EXPECT_EQ(sharded.shard_service(1).epoch(), 1u);
  }
}

}  // namespace
}  // namespace activeiter
