// The shrink path's correctness anchor: a grow→shrink→grow stream is
// equivalent to rebuilding everything from scratch at every epoch —
//
//   * the design matrix X stays BITWISE the compressed X of a fresh
//     FeatureExtractor over the mutated pair (each drain gathers X anew
//     over the compacted slice, so no churn residue survives in X),
//   * weights, scores and the label vector are BITWISE identical to a
//     freshly built session's — the refit forms the Gram and its factor
//     from X, so no churn residue survives in them either,
//   * and every published epoch costs exactly ONE factorisation (the
//     shard's refit), proven via CholeskyFactor::TotalFactorCount.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/align/iter_aligner.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/sparse_ops.h"
#include "src/metadiagram/features.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"
#include "tests/linalg/csr_bitwise.h"

namespace activeiter {
namespace {

AlignedPair TinyPair(uint64_t seed = 7) {
  auto pair = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(pair.ok());
  return std::move(pair).ValueOrDie();
}

DeltaStream ChurnStream(uint64_t seed, double churn_fraction) {
  AlignedPair full = TinyPair(seed);
  DeltaStreamOptions carve;
  carve.num_batches = 3;
  carve.initial_fraction = 0.4;
  carve.np_ratio = 5.0;
  carve.churn_fraction = churn_fraction;
  carve.seed = seed ^ 0x5EEDULL;
  auto stream = CarveDeltaStream(full, carve);
  EXPECT_TRUE(stream.ok());
  return std::move(stream).ValueOrDie();
}

/// Batch rebuild of the full pipeline over a one-shard ingestor's state.
struct BatchRebuild {
  Matrix x;
  AlignmentResult result;

  BatchRebuild(const ShardedIngestor& ingestor,
               const std::vector<AnchorLink>& train_anchors, double c) {
    const CandidateLinkSet& candidates = ingestor.shard(0).candidates();
    FeatureExtractor extractor(ingestor.pair(), train_anchors);
    x = extractor.Extract(candidates);
    IncidenceIndex index(ingestor.pair(), candidates);
    auto session = AlignmentSession::Create(x, index, c);
    EXPECT_TRUE(session.ok());
    std::vector<Pin> pins(candidates.size(), Pin::kFree);
    for (const AnchorLink& a : train_anchors) {
      for (size_t id = 0; id < candidates.size(); ++id) {
        const auto& [u1, u2] = candidates.link(id);
        if (u1 == a.u1 && u2 == a.u2) pins[id] = Pin::kPositive;
      }
    }
    session.value().ResetPins(pins);
    IterAligner aligner;
    auto aligned = aligner.Align(session.value());
    EXPECT_TRUE(aligned.ok());
    result = std::move(aligned).ValueOrDie();
  }
};

TEST(ChurnEquivalenceTest, GrowShrinkGrowMatchesBatchRebuildEveryEpoch) {
  DeltaStream s = ChurnStream(7, 0.3);
  // Churn mode interleaves shrink batches and a final re-add batch.
  ASSERT_GT(s.batches.size(), 3u);
  size_t stream_removals = 0;
  for (const ServeDelta& b : s.batches) {
    stream_removals += b.removed_candidates.size();
  }
  ASSERT_GT(stream_removals, 0u);

  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates));
  ASSERT_TRUE(ingestor.Start().ok());
  const AlignmentService& service = ingestor.shard_service(0);
  EXPECT_EQ(ingestor.stats().full_factorisations, 1u);

  size_t replaced_rows_moved = 0;
  for (size_t b = 0; b < s.batches.size(); ++b) {
    const Matrix x_before = ingestor.shard(0).design().ToDense();
    const std::vector<size_t> ids_before = ingestor.shard(0).global_ids();
    const uint64_t factors_before = CholeskyFactor::TotalFactorCount();
    ASSERT_TRUE(ingestor.ApplyOnce(s.batches[b]).ok()) << "batch " << b;
    // Grow and shrink epochs alike cost exactly one refit.
    EXPECT_EQ(CholeskyFactor::TotalFactorCount(), factors_before + 1)
        << "batch " << b;
    // rows_replaced counts the surviving candidates (matched by global
    // link id) whose feature row moved.
    const Matrix x_after = ingestor.shard(0).design().ToDense();
    const std::vector<size_t>& ids_after = ingestor.shard(0).global_ids();
    size_t moved = 0;
    for (size_t r = 0; r < ids_after.size(); ++r) {
      const auto old = std::lower_bound(ids_before.begin(), ids_before.end(),
                                        ids_after[r]);
      if (old == ids_before.end() || *old != ids_after[r]) continue;
      const size_t i = static_cast<size_t>(old - ids_before.begin());
      for (size_t j = 0; j < x_after.cols(); ++j) {
        if (x_after(r, j) != x_before(i, j)) {
          ++moved;
          break;
        }
      }
    }
    replaced_rows_moved += moved;
    EXPECT_EQ(ingestor.stats().rows_replaced, replaced_rows_moved)
        << "batch " << b;

    auto snap = service.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->epoch, b + 1);
    ASSERT_EQ(snap->size(), ingestor.shard(0).candidates().size());

    // 1. X is bitwise the compressed from-scratch extraction.
    BatchRebuild rebuild(ingestor, s.train_anchors, 1.0);
    EXPECT_TRUE(CsrBitwiseEqual(CompressDense(rebuild.x),
                                ingestor.shard(0).design()))
        << "epoch " << b + 1;

    // 2. Weights, scores and labels are bitwise a fresh build's.
    ASSERT_EQ(rebuild.result.scores.size(), snap->scores.size());
    EXPECT_EQ((rebuild.result.scores - snap->scores).NormInf(), 0.0)
        << "epoch " << b + 1;
    EXPECT_EQ((rebuild.result.w - snap->w).NormInf(), 0.0)
        << "epoch " << b + 1;
    for (size_t i = 0; i < snap->size(); ++i) {
      EXPECT_EQ(rebuild.result.y(i), snap->y(i))
          << "epoch " << b + 1 << " link " << i;
    }
  }

  IngestStats stats = ingestor.stats();
  EXPECT_EQ(stats.epochs_published, s.batches.size() + 1);
  EXPECT_EQ(stats.full_factorisations, stats.epochs_published);
  EXPECT_EQ(stats.rows_removed, stream_removals);
  EXPECT_GT(stats.rows_appended, stats.rows_removed);
  EXPECT_GT(stats.rows_replaced, 0u);
}

TEST(ChurnEquivalenceTest, MultiShardChurnRoutesRemovalsToOwningShard) {
  DeltaStream s = ChurnStream(13, 0.25);
  size_t stream_removals = 0;
  for (const ServeDelta& b : s.batches) {
    stream_removals += b.removed_candidates.size();
  }
  ASSERT_GT(stream_removals, 0u);

  IngestorOptions options;
  options.partition.num_shards = 2;
  ShardedIngestor sharded(std::move(s.initial), s.train_anchors,
                          std::move(s.initial_candidates), options);
  ASSERT_TRUE(sharded.Start().ok());
  for (const ServeDelta& batch : s.batches) {
    ASSERT_TRUE(sharded.ApplyOnce(batch).ok());
  }
  // Every removal found its owning shard; none were double-applied.
  EXPECT_EQ(sharded.stats().rows_removed, stream_removals);
  EXPECT_EQ(sharded.stats().full_factorisations,
            2 * sharded.stats().epochs_published);
  EXPECT_EQ(sharded.shard_stats(0).rows_removed +
                sharded.shard_stats(1).rows_removed,
            stream_removals);
}

TEST(ChurnEquivalenceTest, RemovingUnknownCandidateRejectsWithoutMutating) {
  DeltaStream s = ChurnStream(17, 0.0);
  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates));
  ASSERT_TRUE(ingestor.Start().ok());
  const size_t rows_before = ingestor.shard(0).design().rows();
  const size_t users_before =
      ingestor.pair().first().NodeCount(NodeType::kUser);

  // A real graph delta rides along: the unknown removal must reject the
  // whole batch before the graph grows.
  ServeDelta bad;
  bad.graph = s.batches[0].graph;
  bad.removed_candidates.emplace_back(NodeId{0}, NodeId{4000000});
  EXPECT_EQ(ingestor.ApplyOnce(bad).code(), StatusCode::kNotFound);
  EXPECT_EQ(ingestor.pair().first().NodeCount(NodeType::kUser),
            users_before);
  EXPECT_EQ(ingestor.shard(0).design().rows(), rows_before);
  EXPECT_EQ(ingestor.stats().rows_removed, 0u);
  EXPECT_EQ(ingestor.backend().epoch(), 0u);

  // Serving continues: a valid batch still applies afterwards.
  ASSERT_TRUE(ingestor.ApplyOnce(s.batches[0]).ok());
  EXPECT_EQ(ingestor.backend().epoch(), 1u);
}

}  // namespace
}  // namespace activeiter
