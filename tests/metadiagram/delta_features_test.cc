// DeltaFeatureExtractor invariants: bitwise equality with a from-scratch
// FeatureExtractor after every delta, and genuine cross-epoch reuse (clean
// diagrams never recompute; their intermediates migrate via padding).

#include "src/metadiagram/delta_features.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/eval/protocol.h"
#include "src/linalg/sparse_ops.h"
#include "src/serve/delta_stream.h"
#include "tests/linalg/csr_bitwise.h"

namespace activeiter {
namespace {

AlignedPair TinyPair(uint64_t seed = 7) {
  auto pair = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(pair.ok());
  return std::move(pair).ValueOrDie();
}

std::vector<AnchorLink> TrainAnchors(const AlignedPair& pair, size_t count) {
  return std::vector<AnchorLink>(pair.anchors().begin(),
                                 pair.anchors().begin() +
                                     static_cast<ptrdiff_t>(count));
}

CandidateLinkSet SomeCandidates(const AlignedPair& pair, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  const size_t u1 = pair.first().NodeCount(NodeType::kUser);
  const size_t u2 = pair.second().NodeCount(NodeType::kUser);
  CandidateLinkSet candidates;
  for (const AnchorLink& a :
       TrainAnchors(pair, std::min<size_t>(10, pair.anchor_count()))) {
    candidates.Add(a.u1, a.u2);
  }
  while (candidates.size() < count) {
    candidates.Add(static_cast<NodeId>(rng.UniformInt(u1)),
                   static_cast<NodeId>(rng.UniformInt(u2)));
  }
  return candidates;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(Matrix::MaxAbsDiff(a, b), 0.0);
}

TEST(DeltaFeatureTest, InitialExtractionMatchesBatchExtractor) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 40, 3);

  DeltaFeatureExtractor delta_extractor(pair, train);
  FeatureExtractor batch_extractor(pair, train);
  ExpectBitwiseEqual(delta_extractor.Extract(candidates),
                     batch_extractor.Extract(candidates));
}

TEST(DeltaFeatureTest, DeltaExtractionBitwiseMatchesFullRebuild) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 40, 4);

  DeltaFeatureExtractor extractor(pair, train);
  extractor.Extract(candidates);  // epoch 0

  // New users on both sides joined by follow edges into the old graph —
  // the canonical "new shared user arrives" batch. Only the two follow
  // relations dirty; every pure-attribute diagram must survive untouched.
  const NodeId old_u1 = 0;
  const NodeId new_u1 =
      static_cast<NodeId>(pair.first().NodeCount(NodeType::kUser));
  const NodeId new_u2 =
      static_cast<NodeId>(pair.second().NodeCount(NodeType::kUser));
  PairDelta delta;
  delta.first.nodes.push_back({NodeType::kUser, 1});
  delta.first.edges.push_back({RelationType::kFollow, new_u1, old_u1});
  delta.first.edges.push_back({RelationType::kFollow, old_u1, new_u1});
  delta.second.nodes.push_back({NodeType::kUser, 1});
  delta.second.edges.push_back({RelationType::kFollow, new_u2, 1});
  delta.new_anchors.push_back({new_u1, new_u2});
  ASSERT_TRUE(pair.ApplyDelta(delta).ok());
  extractor.NoteDelta(delta);

  // Candidates now include pairs built from brand-new users.
  candidates.Add(new_u1, new_u2);
  candidates.Add(new_u1, 0);
  candidates.Add(0, new_u2);

  Matrix streamed = extractor.Extract(candidates);
  FeatureExtractor batch_extractor(pair, train);
  ExpectBitwiseEqual(streamed, batch_extractor.Extract(candidates));

  // Only follow was touched: the attribute paths, Ψ2 and their shared
  // intermediates must be served from migration; follow chains are either
  // row-spliced in place (delta-bounded incremental SpGEMM) or dropped.
  const DeltaFeatureExtractor::RefreshStats& stats = extractor.stats();
  EXPECT_EQ(stats.refreshes, 2u);
  EXPECT_GT(stats.diagrams_reused, 0u);
  EXPECT_GT(stats.intermediates_migrated, 0u);
  EXPECT_GT(stats.intermediates_dropped + stats.intermediates_row_updated, 0u);
  // A handful of edges into a tiny graph sits far under the splicing
  // threshold, so the incremental path must actually fire.
  EXPECT_GT(stats.intermediates_row_updated, 0u);
  EXPECT_GT(stats.diagrams_row_updated, 0u);
}

TEST(DeltaFeatureTest, AttributeOnlyDeltaKeepsSocialDiagramsClean) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 30, 5);
  DeltaFeatureExtractor extractor(pair, train);
  extractor.Extract(candidates);

  // Only side-1 checkin changes: every pure-social diagram stays clean.
  PairDelta delta;
  delta.first.edges.push_back({RelationType::kCheckin, 0, 0});
  ASSERT_TRUE(pair.ApplyDelta(delta).ok());
  extractor.NoteDelta(delta);
  std::vector<size_t> dirty = extractor.Refresh();
  EXPECT_FALSE(dirty.empty());
  EXPECT_LT(dirty.size(), extractor.feature_names().size());
  // The pure-social paths and fusions (P1..P4, MD[P1xP2], ...) must stay
  // clean: only diagrams with an attribute segment can see the change.
  const std::vector<std::string>& names = extractor.feature_names();
  for (size_t k = 0; k < names.size(); ++k) {
    if (names[k] == "P1" || names[k] == "P2" || names[k] == "P3" ||
        names[k] == "P4" || names[k] == "MD[P1xP2]") {
      EXPECT_TRUE(std::find(dirty.begin(), dirty.end(), k) == dirty.end())
          << names[k];
    }
  }

  Matrix streamed = extractor.Extract(candidates);
  FeatureExtractor batch_extractor(pair, train);
  ExpectBitwiseEqual(streamed, batch_extractor.Extract(candidates));
}

TEST(DeltaFeatureTest, NodeOnlyGrowthDirtiesNothing) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 25, 6);
  DeltaFeatureExtractor extractor(pair, train);
  extractor.Extract(candidates);

  PairDelta delta;
  delta.first.nodes.push_back({NodeType::kUser, 3});
  delta.second.nodes.push_back({NodeType::kUser, 2});
  ASSERT_TRUE(pair.ApplyDelta(delta).ok());
  extractor.NoteDelta(delta);
  std::vector<size_t> dirty = extractor.Refresh();
  EXPECT_TRUE(dirty.empty());
  // Only the epoch-0 build ever recomputed anything.
  EXPECT_EQ(extractor.stats().diagrams_recomputed,
            extractor.feature_names().size());

  // Isolated new users score zero against everyone but extraction over
  // them must be well-formed and match a full rebuild.
  const NodeId new_u1 =
      static_cast<NodeId>(pair.first().NodeCount(NodeType::kUser) - 1);
  candidates.Add(new_u1, 0);
  Matrix streamed = extractor.Extract(candidates);
  FeatureExtractor batch_extractor(pair, train);
  ExpectBitwiseEqual(streamed, batch_extractor.Extract(candidates));
  for (size_t k = 0; k < extractor.feature_names().size(); ++k) {
    EXPECT_EQ(streamed(candidates.size() - 1, k), 0.0);
  }
}

// Grow-then-grow: several edge batches in a row, each refreshed and
// extracted, must stay bitwise-equal to a from-scratch rebuild at every
// epoch — the spliced products of epoch t are the splice bases of t+1.
TEST(DeltaFeatureTest, GrowThenGrowStreamBitwiseAtEveryEpoch) {
  AlignedPair pair = TinyPair(11);
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 30, 12);
  DeltaFeatureExtractor extractor(pair, train);
  extractor.Extract(candidates);

  for (int epoch = 0; epoch < 3; ++epoch) {
    const NodeId new_u1 =
        static_cast<NodeId>(pair.first().NodeCount(NodeType::kUser));
    PairDelta delta;
    delta.first.nodes.push_back({NodeType::kUser, 1});
    delta.first.edges.push_back(
        {RelationType::kFollow, new_u1, static_cast<NodeId>(epoch)});
    delta.first.edges.push_back(
        {RelationType::kFollow, static_cast<NodeId>(epoch + 1), new_u1});
    delta.second.edges.push_back(
        {RelationType::kFollow, static_cast<NodeId>(epoch),
         static_cast<NodeId>(epoch + 2)});
    ASSERT_TRUE(pair.ApplyDelta(delta).ok());
    extractor.NoteDelta(delta);
    candidates.Add(new_u1, static_cast<NodeId>(epoch));

    Matrix streamed = extractor.Extract(candidates);
    FeatureExtractor batch_extractor(pair, train);
    ExpectBitwiseEqual(streamed, batch_extractor.Extract(candidates));
  }
  EXPECT_GT(extractor.stats().intermediates_row_updated, 0u);
  EXPECT_GT(extractor.stats().diagrams_row_updated, 0u);
}

// Fallback-threshold boundary: 0 disables splicing outright (every dirty
// intermediate drops and recomputes), 1.0 splices whenever a base exists.
// Both ends must stay bitwise-equal to the full rebuild.
TEST(DeltaFeatureTest, SplicingThresholdBoundaries) {
  for (double threshold : {0.0, 1.0}) {
    AlignedPair pair = TinyPair(13);
    std::vector<AnchorLink> train = TrainAnchors(pair, 10);
    CandidateLinkSet candidates = SomeCandidates(pair, 25, 14);
    FeatureExtractorOptions options;
    options.spgemm_row_update_max_fraction = threshold;
    DeltaFeatureExtractor extractor(pair, train, options);
    extractor.Extract(candidates);

    PairDelta delta;
    delta.first.edges.push_back({RelationType::kFollow, 0, 2});
    delta.second.edges.push_back({RelationType::kFollow, 3, 1});
    ASSERT_TRUE(pair.ApplyDelta(delta).ok());
    extractor.NoteDelta(delta);

    Matrix streamed = extractor.Extract(candidates);
    FeatureExtractor batch_extractor(pair, train);
    ExpectBitwiseEqual(streamed, batch_extractor.Extract(candidates));

    const DeltaFeatureExtractor::RefreshStats& stats = extractor.stats();
    if (threshold == 0.0) {
      EXPECT_EQ(stats.intermediates_row_updated, 0u);
      EXPECT_EQ(stats.diagrams_row_updated, 0u);
      EXPECT_GT(stats.intermediates_dropped, 0u);
    } else {
      EXPECT_GT(stats.intermediates_row_updated, 0u);
    }
  }
}

// Shrinking deltas ride the same splice path as growth: a removed edge is
// just a changed row, so streamed extraction after edge removals (and a
// remove-then-re-add round trip) must stay bitwise-equal to the rebuild.
TEST(DeltaFeatureTest, RemovedEdgesBitwiseMatchFullRebuild) {
  AlignedPair pair = TinyPair(15);
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 30, 16);
  DeltaFeatureExtractor extractor(pair, train);
  extractor.Extract(candidates);

  // Remove one existing follow edge per side.
  const auto first_edge = pair.first().Edges(RelationType::kFollow).front();
  const auto second_edge = pair.second().Edges(RelationType::kFollow).front();
  PairDelta shrink;
  shrink.first.removed_edges.push_back(
      {RelationType::kFollow, first_edge.first, first_edge.second});
  shrink.second.removed_edges.push_back(
      {RelationType::kFollow, second_edge.first, second_edge.second});
  ASSERT_TRUE(pair.ApplyDelta(shrink).ok());
  extractor.NoteDelta(shrink);

  Matrix streamed = extractor.Extract(candidates);
  FeatureExtractor batch_extractor(pair, train);
  ExpectBitwiseEqual(streamed, batch_extractor.Extract(candidates));

  // Round trip: re-adding the removed edges restores the original
  // features exactly, still through the incremental path.
  PairDelta regrow;
  regrow.first.edges.push_back(
      {RelationType::kFollow, first_edge.first, first_edge.second});
  regrow.second.edges.push_back(
      {RelationType::kFollow, second_edge.first, second_edge.second});
  ASSERT_TRUE(pair.ApplyDelta(regrow).ok());
  extractor.NoteDelta(regrow);
  Matrix restored = extractor.Extract(candidates);
  FeatureExtractor fresh(pair, train);
  ExpectBitwiseEqual(restored, fresh.Extract(candidates));
  EXPECT_EQ(extractor.stats().refreshes, 3u);
  EXPECT_GT(extractor.stats().diagrams_reused, 0u);
}

/// FNV-1a over X's shape and the bit pattern of every entry, chained from
/// `h` so a stream's epochs fold into one value.
uint64_t FeatureFingerprint(const Matrix& x,
                            uint64_t h = 1469598103934665603ULL) {
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(x.rows());
  mix(x.cols());
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) {
      uint64_t bits;
      const double v = x(i, j);
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

/// Fingerprint of the DeltaFeatureExtractor's X at every epoch of a carved
/// stream (epoch 0 included), over every candidate revealed so far; each
/// epoch is also checked against a fresh FeatureExtractor.
uint64_t StreamFingerprint(double churn_fraction) {
  auto full = AlignedNetworkGenerator(TinyPreset(19)).Generate();
  EXPECT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 6;
  carve.np_ratio = 4.0;
  carve.churn_fraction = churn_fraction;
  carve.seed = 23;
  auto stream = CarveDeltaStream(full.value(), carve);
  EXPECT_TRUE(stream.ok());
  AlignedPair& pair = stream.value().initial;
  const std::vector<AnchorLink>& train = stream.value().train_anchors;
  CandidateLinkSet candidates = stream.value().initial_candidates;
  DeltaFeatureExtractor extractor(pair, train);
  uint64_t h = FeatureFingerprint(extractor.Extract(candidates));
  for (const ServeDelta& batch : stream.value().batches) {
    EXPECT_TRUE(pair.ApplyDelta(batch.graph).ok());
    extractor.NoteDelta(batch.graph);
    for (const auto& [u1, u2] : batch.new_candidates) candidates.Add(u1, u2);
    const Matrix x = extractor.Extract(candidates);
    ExpectBitwiseEqual(x, FeatureExtractor(pair, train).Extract(candidates));
    h = FeatureFingerprint(x, h);
  }
  return h;
}

TEST(DeltaFeatureTest, GoldenFeatureFingerprints) {
  // Pins X end to end: one fixed fold through FeatureExtractor (with and
  // without the word path), and the delta-aware engine at every epoch of a
  // grow stream and a grow-shrink-grow stream. Any change to the catalog,
  // the evaluator, the kernels or the splice path that moves one bit of X
  // changes these constants.
  auto pair = AlignedNetworkGenerator(TinyPreset(17)).Generate();
  ASSERT_TRUE(pair.ok());
  ProtocolConfig config;
  config.np_ratio = 10.0;
  config.num_folds = 5;
  config.seed = 29;
  auto protocol = Protocol::Create(pair.value(), config);
  ASSERT_TRUE(protocol.ok());
  const FoldData fold = protocol.value().MakeFold(0);
  const uint64_t kFold = 5478536272332133241ULL;
  const uint64_t kFoldWordPath = 3886403618885873307ULL;
  const uint64_t kGrowStream = 7178679737612454952ULL;
  const uint64_t kChurnStream = 14941874489934486002ULL;
  EXPECT_EQ(FeatureFingerprint(FeatureExtractor(pair.value(),
                                                fold.train_anchors)
                                   .Extract(fold.candidates)),
            kFold);
  FeatureExtractorOptions word_path;
  word_path.include_word_path = true;
  EXPECT_EQ(FeatureFingerprint(FeatureExtractor(pair.value(),
                                                fold.train_anchors, word_path)
                                   .Extract(fold.candidates)),
            kFoldWordPath);
  EXPECT_EQ(StreamFingerprint(0.0), kGrowStream);
  EXPECT_EQ(StreamFingerprint(0.3), kChurnStream);
}

/// Gather's definition: a dense X filled from per-pair Score() plus the
/// bias, compressed.
SparseMatrix GatherByDefinition(const ProximityTables& tables,
                                const CandidateLinkSet& candidates) {
  const size_t d = tables.dimension();
  Matrix x(candidates.size(), d);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const auto& [u1, u2] = candidates.link(i);
    for (size_t k = 0; k + 1 < d; ++k) x(i, k) = tables.table(k).Score(u1, u2);
    x(i, d - 1) = 1.0;
  }
  return CompressDense(x);
}

/// Random small-integer counts, a quarter of the cells stored and one in
/// twenty stored as an explicit 0.0 (FromCsr keeps it).
SparseMatrix RandomCounts(size_t rows, size_t cols, Rng& rng) {
  std::vector<size_t> row_ptr{0};
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const double draw = rng.UniformDouble();
      if (draw >= 0.30) continue;
      col_idx.push_back(static_cast<uint32_t>(j));
      const auto count = static_cast<double>(1 + rng.UniformInt(4));
      values.push_back(draw < 0.05 ? 0.0 : count);
    }
    row_ptr.push_back(col_idx.size());
  }
  return SparseMatrix::FromCsr(rows, cols, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

TEST(ProximityTablesTest, GatherMatchesPerPairScoresCompressed) {
  constexpr size_t kUsers1 = 14, kUsers2 = 11, kPadded1 = 17, kPadded2 = 13;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string what = "seed " + std::to_string(seed);
    Rng rng(seed);
    // Five tables over the old universes, padded to grown ones: the new
    // users have no instances.
    std::vector<std::shared_ptr<const ProximityScores>> scores;
    for (int k = 0; k < 5; ++k) {
      scores.push_back(std::make_shared<const ProximityScores>(
          ProximityScores(RandomCounts(kUsers1, kUsers2, rng))
              .PaddedTo(kPadded1, kPadded2)));
    }
    const ProximityTables tables(scores, kPadded1, kPadded2);

    EXPECT_TRUE(CsrBitwiseEqual(tables.Gather(CandidateLinkSet()),
                                GatherByDefinition(tables, {})))
        << what << " empty";

    CandidateLinkSet candidates;
    // A pair whose count is an explicitly stored zero.
    const SparseMatrix& counts = tables.table(0).counts();
    for (size_t e = 0; e < counts.nnz(); ++e) {
      if (counts.values()[e] != 0.0) continue;
      const auto row = std::upper_bound(counts.row_ptr().begin(),
                                        counts.row_ptr().end(), e) -
                       counts.row_ptr().begin() - 1;
      candidates.Add(static_cast<NodeId>(row), counts.col_idx()[e]);
      break;
    }
    ASSERT_EQ(candidates.size(), 1u) << what << ": no stored zero drawn";
    // Random pairs over the padded universes, skipping network-1 user 3
    // (a user with no candidates), one of them repeated, and pairs on the
    // users added by the padding.
    while (candidates.size() < 40) {
      const auto u1 = static_cast<NodeId>(rng.UniformInt(kPadded1));
      if (u1 == 3) continue;
      candidates.Add(u1, static_cast<NodeId>(rng.UniformInt(kPadded2)));
    }
    candidates.Add(candidates.link(7).first, candidates.link(7).second);
    candidates.Add(static_cast<NodeId>(kPadded1 - 1), 2);
    candidates.Add(5, static_cast<NodeId>(kPadded2 - 1));
    EXPECT_TRUE(CsrBitwiseEqual(tables.Gather(candidates),
                                GatherByDefinition(tables, candidates)))
        << what;
  }
}

TEST(ProximityTablesDeathTest, GatherRejectsTombstones) {
  Rng rng(3);
  const ProximityTables tables(
      {std::make_shared<const ProximityScores>(RandomCounts(4, 4, rng))}, 4,
      4);
  CandidateLinkSet candidates;
  candidates.Add(0, 1);
  candidates.Add(2, 3);
  ASSERT_TRUE(candidates.Remove(0).ok());
  EXPECT_DEATH(tables.Gather(candidates), "compacted");
}

TEST(DeltaFeatureTest, RefreshWithoutDeltaIsANoOp) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 20, 7);
  DeltaFeatureExtractor extractor(pair, train);
  extractor.Extract(candidates);
  EXPECT_TRUE(extractor.Refresh().empty());
  EXPECT_EQ(extractor.stats().refreshes, 1u);
}

}  // namespace
}  // namespace activeiter
