// CarveDeltaStream invariants: replaying every batch reconstructs the full
// pair up to the reveal-order id permutation, waves only reference already
// revealed nodes, and the candidate/anchor bookkeeping is consistent.

#include "src/serve/delta_stream.h"

#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"

namespace activeiter {
namespace {

AlignedPair TinyPair(uint64_t seed = 7) {
  auto pair = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(pair.ok());
  return std::move(pair).ValueOrDie();
}

TEST(DeltaStreamTest, ReplayReconstructsTheFullPair) {
  AlignedPair full = TinyPair();
  DeltaStreamOptions options;
  options.num_batches = 4;
  options.initial_fraction = 0.5;
  options.np_ratio = 3.0;
  options.seed = 31;
  auto stream = CarveDeltaStream(full, options);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();
  ASSERT_EQ(s.batches.size(), 4u);

  // The initial state is a strict subset.
  EXPECT_LT(s.initial.first().NodeCount(NodeType::kUser),
            full.first().NodeCount(NodeType::kUser));
  EXPECT_LT(s.initial.anchor_count(), full.anchor_count());
  EXPECT_GT(s.initial.anchor_count(), 0u);

  // Replay every batch; each must validate cleanly.
  AlignedPair replay = s.initial;
  size_t streamed_candidates = s.initial_candidates.size();
  for (const ServeDelta& batch : s.batches) {
    ASSERT_TRUE(replay.ApplyDelta(batch.graph).ok());
    streamed_candidates += batch.new_candidates.size();
  }

  // Node counts match the source exactly; ids are a permutation.
  for (NodeType t : {NodeType::kUser, NodeType::kPost, NodeType::kWord,
                     NodeType::kLocation, NodeType::kTimestamp}) {
    EXPECT_EQ(replay.first().NodeCount(t), full.first().NodeCount(t));
    EXPECT_EQ(replay.second().NodeCount(t), full.second().NodeCount(t));
  }
  // Edge multisets per relation have the same cardinality, and the
  // deduplicated adjacency the same support size.
  for (int r = 0; r < kNumRelationTypes; ++r) {
    RelationType rel = static_cast<RelationType>(r);
    EXPECT_EQ(replay.first().EdgeCount(rel), full.first().EdgeCount(rel));
    EXPECT_EQ(replay.second().EdgeCount(rel), full.second().EdgeCount(rel));
    EXPECT_EQ(replay.first().AdjacencyMatrix(rel).nnz(),
              full.first().AdjacencyMatrix(rel).nnz());
  }
  EXPECT_EQ(replay.anchor_count(), full.anchor_count());

  // Candidates: all positives present exactly once, plus θ negatives each.
  EXPECT_EQ(streamed_candidates,
            full.anchor_count() +
                static_cast<size_t>(options.np_ratio *
                                    static_cast<double>(
                                        full.anchor_count())));
  size_t positives = 0;
  for (size_t id = 0; id < s.initial_candidates.size(); ++id) {
    const auto& [u1, u2] = s.initial_candidates.link(id);
    if (replay.IsAnchor(u1, u2)) ++positives;
  }
  for (const ServeDelta& batch : s.batches) {
    for (const auto& [u1, u2] : batch.new_candidates) {
      if (replay.IsAnchor(u1, u2)) ++positives;
    }
  }
  EXPECT_EQ(positives, full.anchor_count());

  // L+ is a nonempty subset of wave-0 anchors.
  ASSERT_FALSE(s.train_anchors.empty());
  for (const AnchorLink& a : s.train_anchors) {
    EXPECT_TRUE(s.initial.IsAnchor(a.u1, a.u2));
  }
}

TEST(DeltaStreamTest, BatchesOnlyReferenceRevealedNodes) {
  AlignedPair full = TinyPair(17);
  DeltaStreamOptions options;
  options.num_batches = 3;
  options.seed = 32;
  auto stream = CarveDeltaStream(full, options);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();

  // Candidate endpoints must exist by the time their batch applies — the
  // replay below would fail SyncWithCandidates-style checks otherwise.
  AlignedPair replay = s.initial;
  CandidateLinkSet candidates = s.initial_candidates;
  IncidenceIndex index(replay, candidates);
  for (const ServeDelta& batch : s.batches) {
    ASSERT_TRUE(replay.ApplyDelta(batch.graph).ok());
    for (const auto& [u1, u2] : batch.new_candidates) {
      ASSERT_LT(u1, replay.first().NodeCount(NodeType::kUser));
      ASSERT_LT(u2, replay.second().NodeCount(NodeType::kUser));
      candidates.Add(u1, u2);
    }
    index.SyncWithCandidates(replay.first().NodeCount(NodeType::kUser),
                             replay.second().NodeCount(NodeType::kUser));
  }
  EXPECT_EQ(index.candidate_count(), candidates.size());
}

TEST(DeltaStreamTest, DeterministicInSeed) {
  AlignedPair full = TinyPair(19);
  DeltaStreamOptions options;
  options.num_batches = 2;
  options.seed = 33;
  auto a = CarveDeltaStream(full, options);
  auto b = CarveDeltaStream(full, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().initial_candidates.links(),
            b.value().initial_candidates.links());
  ASSERT_EQ(a.value().batches.size(), b.value().batches.size());
  for (size_t i = 0; i < a.value().batches.size(); ++i) {
    EXPECT_EQ(a.value().batches[i].new_candidates,
              b.value().batches[i].new_candidates);
    EXPECT_EQ(a.value().batches[i].graph.first.edges.size(),
              b.value().batches[i].graph.first.edges.size());
  }
}

// Churn mode interleaves a shrink batch after each grow wave and one
// re-add batch at the very end; every removal names something a previous
// batch (or the initial state) revealed, so full replay still validates
// cleanly and lands on the complete pair.
TEST(DeltaStreamTest, ChurnReplayStillReconstructsTheFullPair) {
  AlignedPair full = TinyPair(29);
  DeltaStreamOptions options;
  options.num_batches = 3;
  options.initial_fraction = 0.4;
  options.np_ratio = 3.0;
  options.seed = 34;
  options.churn_fraction = 0.5;
  auto stream = CarveDeltaStream(full, options);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();

  // More batches than the grow-only carve, and at least one of them
  // actually shrinks something.
  EXPECT_GT(s.batches.size(), 3u);
  size_t removed_edges = 0, retracted = 0, removed_candidates = 0;
  for (const ServeDelta& batch : s.batches) {
    removed_edges += batch.graph.first.removed_edges.size() +
                     batch.graph.second.removed_edges.size();
    retracted += batch.graph.retracted_anchors.size();
    removed_candidates += batch.removed_candidates.size();
  }
  EXPECT_GT(removed_edges, 0u);
  EXPECT_GT(retracted, 0u);
  EXPECT_GT(removed_candidates, 0u);

  // Replay applies every batch — shrink batches included — and each must
  // pass validate-then-commit. Candidate removals must name pairs that
  // are currently live.
  AlignedPair replay = s.initial;
  std::multiset<std::pair<NodeId, NodeId>> live;
  for (size_t id = 0; id < s.initial_candidates.size(); ++id) {
    live.insert(s.initial_candidates.link(id));
  }
  for (const ServeDelta& batch : s.batches) {
    ASSERT_TRUE(replay.ApplyDelta(batch.graph).ok());
    for (const auto& pair : batch.removed_candidates) {
      auto it = live.find(pair);
      ASSERT_TRUE(it != live.end());
      live.erase(it);
    }
    for (const auto& pair : batch.new_candidates) live.insert(pair);
  }

  // The final re-add batch restores everything: node/edge/anchor counts
  // match the source pair and the candidate multiset is full-sized again.
  for (NodeType t : {NodeType::kUser, NodeType::kPost, NodeType::kWord}) {
    EXPECT_EQ(replay.first().NodeCount(t), full.first().NodeCount(t));
    EXPECT_EQ(replay.second().NodeCount(t), full.second().NodeCount(t));
  }
  for (int r = 0; r < kNumRelationTypes; ++r) {
    RelationType rel = static_cast<RelationType>(r);
    EXPECT_EQ(replay.first().EdgeCount(rel), full.first().EdgeCount(rel));
    EXPECT_EQ(replay.second().EdgeCount(rel), full.second().EdgeCount(rel));
  }
  EXPECT_EQ(replay.anchor_count(), full.anchor_count());
  EXPECT_EQ(live.size(),
            full.anchor_count() +
                static_cast<size_t>(options.np_ratio *
                                    static_cast<double>(
                                        full.anchor_count())));
}

TEST(DeltaStreamTest, ChurnCarveIsDeterministicInSeed) {
  AlignedPair full = TinyPair(37);
  DeltaStreamOptions options;
  options.num_batches = 2;
  options.seed = 35;
  options.churn_fraction = 0.3;
  auto a = CarveDeltaStream(full, options);
  auto b = CarveDeltaStream(full, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().batches.size(), b.value().batches.size());
  for (size_t i = 0; i < a.value().batches.size(); ++i) {
    EXPECT_EQ(a.value().batches[i].removed_candidates,
              b.value().batches[i].removed_candidates);
    EXPECT_EQ(a.value().batches[i].graph.first.removed_edges.size(),
              b.value().batches[i].graph.first.removed_edges.size());
    EXPECT_EQ(a.value().batches[i].graph.retracted_anchors.size(),
              b.value().batches[i].graph.retracted_anchors.size());
  }
}

TEST(DeltaStreamTest, RejectsBadOptions) {
  AlignedPair full = TinyPair(23);
  DeltaStreamOptions options;
  options.num_batches = 0;
  EXPECT_FALSE(CarveDeltaStream(full, options).ok());
  options = DeltaStreamOptions{};
  options.initial_fraction = 1.5;
  EXPECT_FALSE(CarveDeltaStream(full, options).ok());
  options = DeltaStreamOptions{};
  options.train_fraction = 0.0;
  EXPECT_FALSE(CarveDeltaStream(full, options).ok());
  // Churn is a fraction of each wave: [0, 1) only.
  options = DeltaStreamOptions{};
  options.churn_fraction = 1.0;
  EXPECT_FALSE(CarveDeltaStream(full, options).ok());
  options.churn_fraction = -0.1;
  EXPECT_FALSE(CarveDeltaStream(full, options).ok());
}

}  // namespace
}  // namespace activeiter
