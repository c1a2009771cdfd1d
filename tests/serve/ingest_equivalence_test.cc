// The online subsystem's central correctness claim: a streamed ingest run
// is equivalent to rebuilding everything from scratch at every epoch —
//
//   * the shard's gathered CSR design matrix X is BITWISE the compressed
//     X of a fresh FeatureExtractor over the mutated pair (row pointers,
//     columns and value bits),
//   * weights, scores and the matched set (Top-K alignment) are BITWISE
//     identical to a freshly built session's,
//   * and every published epoch costs exactly ONE factorisation (the
//     shard's refit), proven via CholeskyFactor::TotalFactorCount.

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

TEST(IngestEquivalenceTest, StreamedIngestMatchesBatchRebuildEveryEpoch) {
  AlignedPair full = TinyPair();
  DeltaStreamOptions carve;
  carve.num_batches = 3;
  carve.initial_fraction = 0.4;
  carve.np_ratio = 5.0;
  carve.seed = 11;
  auto stream = CarveDeltaStream(full, carve);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();
  // The acceptance bar: a genuinely streamed workload, not a toy dribble.
  EXPECT_GE(s.StreamedCandidateCount(), 100u);

  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates));
  ASSERT_TRUE(ingestor.Start().ok());
  const AlignmentService& service = ingestor.shard_service(0);
  EXPECT_EQ(ingestor.stats().full_factorisations, 1u);
  EXPECT_EQ(service.epoch(), 0u);

  for (size_t b = 0; b < s.batches.size(); ++b) {
    const uint64_t factors_before = CholeskyFactor::TotalFactorCount();
    ASSERT_TRUE(ingestor.ApplyOnce(s.batches[b]).ok());
    // The epoch cost exactly one refit.
    EXPECT_EQ(CholeskyFactor::TotalFactorCount(), factors_before + 1);

    auto snap = service.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->epoch, b + 1);
    ASSERT_EQ(snap->size(), ingestor.shard(0).candidates().size());

    // 1. X is bitwise the compressed from-scratch extraction.
    BatchRebuild rebuild(ingestor, s.train_anchors, 1.0);
    EXPECT_TRUE(CsrBitwiseEqual(CompressDense(rebuild.x),
                                ingestor.shard(0).design()))
        << "epoch " << b + 1;

    // 2. Weights, scores and the matched set are bitwise a fresh build's.
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
  EXPECT_GE(stats.rows_appended, 100u);
}

TEST(IngestEquivalenceTest, EmptyDeltaStillPublishesAnEpoch) {
  AlignedPair full = TinyPair(9);
  DeltaStreamOptions carve;
  carve.num_batches = 2;
  carve.seed = 12;
  auto stream = CarveDeltaStream(full, carve);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();
  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates));
  ASSERT_TRUE(ingestor.Start().ok());
  ASSERT_TRUE(ingestor.ApplyOnce(ServeDelta{}).ok());
  EXPECT_EQ(ingestor.backend().epoch(), 1u);
  EXPECT_EQ(ingestor.stats().rows_appended, 0u);
  EXPECT_EQ(ingestor.stats().full_factorisations, 2u);  // epochs 0 and 1
}

TEST(IngestEquivalenceTest, InvalidDeltaSurfacesAndKeepsServing) {
  AlignedPair full = TinyPair(13);
  DeltaStreamOptions carve;
  carve.num_batches = 2;
  carve.seed = 14;
  auto stream = CarveDeltaStream(full, carve);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();
  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates));
  ASSERT_TRUE(ingestor.Start().ok());

  ServeDelta bad;
  bad.graph.first.edges.push_back({RelationType::kFollow, 0, 1000000});
  EXPECT_FALSE(ingestor.ApplyOnce(bad).ok());
  // A candidate referencing an unknown user is a Status too, not a crash,
  // and must be rejected before the graph batch mutates anything.
  ServeDelta bad_candidate;
  bad_candidate.graph.first.nodes.push_back({NodeType::kUser, 1});
  bad_candidate.new_candidates.emplace_back(
      static_cast<NodeId>(ingestor.pair().first().NodeCount(NodeType::kUser) +
                          5),
      0);
  const size_t users_before =
      ingestor.pair().first().NodeCount(NodeType::kUser);
  EXPECT_EQ(ingestor.ApplyOnce(bad_candidate).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ingestor.pair().first().NodeCount(NodeType::kUser), users_before);
  // The batches rejected atomically: serving continues at epoch 0 and a
  // valid batch still applies cleanly afterwards.
  EXPECT_EQ(ingestor.backend().epoch(), 0u);
  ASSERT_TRUE(ingestor.ApplyOnce(s.batches[0]).ok());
  EXPECT_EQ(ingestor.backend().epoch(), 1u);
}

}  // namespace
}  // namespace activeiter
