// FeatureExtractor across epochs: after every delta, a carried engine is
// bitwise equal to a fresh engine's epoch 0 over the same pair, and the
// reuse is genuine (clean diagrams never recompute; their intermediates
// migrate via padding).

#include "src/metadiagram/features.h"

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

TEST(DeltaFeatureTest, DeltaExtractionBitwiseMatchesFullRebuild) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 40, 4);

  FeatureExtractor extractor(pair, train);
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
  FeatureExtractor rebuilt(pair, train);
  ExpectBitwiseEqual(streamed, rebuilt.Extract(candidates));

  // Only follow was touched: the attribute paths, Ψ2 and their shared
  // intermediates must be served from migration; follow chains are either
  // row-spliced in place (delta-bounded incremental SpGEMM) or dropped.
  const FeatureExtractor::RefreshStats& stats = extractor.stats();
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
  FeatureExtractor extractor(pair, train);
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
  FeatureExtractor rebuilt(pair, train);
  ExpectBitwiseEqual(streamed, rebuilt.Extract(candidates));
}

TEST(DeltaFeatureTest, NodeOnlyGrowthDirtiesNothing) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 25, 6);
  FeatureExtractor extractor(pair, train);
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
  FeatureExtractor rebuilt(pair, train);
  ExpectBitwiseEqual(streamed, rebuilt.Extract(candidates));
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
  FeatureExtractor extractor(pair, train);
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
    FeatureExtractor rebuilt(pair, train);
    ExpectBitwiseEqual(streamed, rebuilt.Extract(candidates));
  }
  EXPECT_GT(extractor.stats().intermediates_row_updated, 0u);
  EXPECT_GT(extractor.stats().diagrams_row_updated, 0u);
}

// Shrinking deltas ride the same splice path as growth: a removed edge is
// just a changed row, so streamed extraction after edge removals (and a
// remove-then-re-add round trip) must stay bitwise-equal to the rebuild.
TEST(DeltaFeatureTest, RemovedEdgesBitwiseMatchFullRebuild) {
  AlignedPair pair = TinyPair(15);
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 30, 16);
  FeatureExtractor extractor(pair, train);
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
  FeatureExtractor rebuilt(pair, train);
  ExpectBitwiseEqual(streamed, rebuilt.Extract(candidates));

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

/// Fingerprint of a carried FeatureExtractor's X at every epoch of a
/// carved stream (epoch 0 included), over every candidate revealed so far;
/// each epoch is also checked against a fresh extractor's epoch 0.
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
  FeatureExtractor extractor(pair, train);
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
  // Pins X end to end: one fixed fold through a fresh FeatureExtractor
  // (with and without the word path), and a carried one at every epoch of
  // a grow stream and a grow-shrink-grow stream. Any change to the
  // catalog, the evaluator, the kernels, the gather or the Δ path that
  // moves one bit of X changes these constants.
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
          RandomCounts(kUsers1, kUsers2, rng).PaddedTo(kPadded1, kPadded2)));
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

/// Every table of `tables` bitwise a fresh engine's over the same pair:
/// the count matrices (row pointers, columns, value bits) and the X their
/// Dice values gather for `candidates`, which also checks the carried row
/// and column sums.
void ExpectTablesMatchFresh(const ProximityTables& tables,
                            const AlignedPair& pair,
                            const std::vector<AnchorLink>& train,
                            const CandidateLinkSet& candidates,
                            const std::string& what) {
  FeatureExtractor fresh(pair, train);
  fresh.Refresh();
  const auto expected = fresh.tables();
  ASSERT_EQ(tables.dimension(), expected->dimension()) << what;
  for (size_t k = 0; k + 1 < tables.dimension(); ++k) {
    EXPECT_TRUE(
        CsrBitwiseEqual(tables.table(k).counts(), expected->table(k).counts()))
        << what << ", column " << k;
  }
  EXPECT_TRUE(CsrBitwiseEqual(tables.Gather(candidates),
                              expected->Gather(candidates)))
      << what;
}

/// A tiny grow-shrink-grow stream: each growth wave is followed by a batch
/// withdrawing 30% of it, and the last batch re-adds everything withdrawn.
Result<DeltaStream> ChurnStream(uint64_t seed) {
  auto full = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 8;
  carve.np_ratio = 4.0;
  carve.churn_fraction = 0.3;
  carve.seed = seed + 1;
  return CarveDeltaStream(full.value(), carve);
}

size_t EdgeChanges(const PairDelta& delta) {
  return delta.first.edges.size() + delta.first.removed_edges.size() +
         delta.second.edges.size() + delta.second.removed_edges.size();
}

// The churn stream's final batch re-adds every withdrawn edge at once, the
// largest Δ any batch carries: every epoch, that one included, carries
// each table forward bitwise, and none re-runs a diagram in full.
TEST(DeltaFeatureTest, ChurnReAddBatchCarriedBitwiseAtEveryEpoch) {
  for (uint64_t seed : {31u, 37u}) {
    auto stream = ChurnStream(seed);
    ASSERT_TRUE(stream.ok());
    const std::vector<ServeDelta>& batches = stream.value().batches;
    size_t largest = 0;
    for (const ServeDelta& batch : batches) {
      largest = std::max(largest, EdgeChanges(batch.graph));
    }
    ASSERT_EQ(EdgeChanges(batches.back().graph), largest);
    ASSERT_TRUE(batches.back().graph.first.removed_edges.empty());

    AlignedPair& pair = stream.value().initial;
    const std::vector<AnchorLink>& train = stream.value().train_anchors;
    CandidateLinkSet candidates = stream.value().initial_candidates;
    FeatureExtractor extractor(pair, train);
    extractor.Refresh();
    for (size_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE(pair.ApplyDelta(batches[b].graph).ok());
      extractor.NoteDelta(batches[b].graph);
      for (const auto& [u1, u2] : batches[b].new_candidates) {
        candidates.Add(u1, u2);
      }
      extractor.Refresh();
      ExpectTablesMatchFresh(*extractor.tables(), pair, train, candidates,
                             "seed " + std::to_string(seed) + ", batch " +
                                 std::to_string(b));
    }
    EXPECT_EQ(extractor.stats().diagrams_recomputed,
              extractor.feature_names().size());
  }
}

// A drain that coalesces a backlog notes eight batches before one
// Refresh: the Δs then span all eight.
TEST(DeltaFeatureTest, CoalescedBacklogOfEightBatchesBitwise) {
  auto full = AlignedNetworkGenerator(TinyPreset(41)).Generate();
  ASSERT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 24;
  carve.np_ratio = 4.0;
  carve.seed = 43;
  auto stream = CarveDeltaStream(full.value(), carve);
  ASSERT_TRUE(stream.ok());
  AlignedPair& pair = stream.value().initial;
  const std::vector<AnchorLink>& train = stream.value().train_anchors;
  CandidateLinkSet candidates = stream.value().initial_candidates;
  FeatureExtractor extractor(pair, train);
  extractor.Refresh();
  const std::vector<ServeDelta>& batches = stream.value().batches;
  for (size_t b = 0; b < batches.size(); ++b) {
    ASSERT_TRUE(pair.ApplyDelta(batches[b].graph).ok());
    extractor.NoteDelta(batches[b].graph);
    for (const auto& [u1, u2] : batches[b].new_candidates) {
      candidates.Add(u1, u2);
    }
    if (b % 8 != 7) continue;
    extractor.Refresh();
    ExpectTablesMatchFresh(*extractor.tables(), pair, train, candidates,
                           "backlog ending at batch " + std::to_string(b));
  }
  EXPECT_EQ(extractor.stats().refreshes, 4u);
}

// On a growth stream every refresh after the first carries all its dirty
// diagrams by their Δs: none is recomputed.
TEST(DeltaFeatureTest, GrowthStreamRecomputesNothingAfterEpochZero) {
  auto full = AlignedNetworkGenerator(TinyPreset(47)).Generate();
  ASSERT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 12;
  carve.np_ratio = 4.0;
  carve.seed = 53;
  auto stream = CarveDeltaStream(full.value(), carve);
  ASSERT_TRUE(stream.ok());
  AlignedPair& pair = stream.value().initial;
  FeatureExtractor extractor(pair, stream.value().train_anchors);
  extractor.Refresh();
  const size_t columns = extractor.feature_names().size();
  ASSERT_EQ(extractor.stats().diagrams_recomputed, columns);
  for (const ServeDelta& batch : stream.value().batches) {
    ASSERT_TRUE(pair.ApplyDelta(batch.graph).ok());
    extractor.NoteDelta(batch.graph);
    const std::vector<size_t> dirty = extractor.Refresh();
    EXPECT_EQ(extractor.stats().diagrams_recomputed, columns);
    EXPECT_FALSE(dirty.empty());
  }
  const FeatureExtractor::RefreshStats& stats = extractor.stats();
  EXPECT_EQ(stats.diagrams_row_updated + stats.diagrams_reused,
            columns * stream.value().batches.size());
  EXPECT_GT(stats.intermediates_row_updated, 0u);
}

TEST(DeltaFeatureTest, RefreshWithoutDeltaIsANoOp) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train = TrainAnchors(pair, 10);
  CandidateLinkSet candidates = SomeCandidates(pair, 20, 7);
  FeatureExtractor extractor(pair, train);
  extractor.Extract(candidates);
  EXPECT_TRUE(extractor.Refresh().empty());
  EXPECT_EQ(extractor.stats().refreshes, 1u);
}

}  // namespace
}  // namespace activeiter
