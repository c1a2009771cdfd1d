// Drain-time coalescing: a backlog of B submits collapses into ONE
// applied batch, one realign and one published epoch — and the resulting
// model is BITWISE the one ApplyOnce(MergeServeDeltas(backlog)) builds.
// The legacy DrainPolicy::kPerDelta keeps the one-epoch-per-submit
// cadence.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"

namespace activeiter {
namespace {

DeltaStream CarvedStream(uint64_t seed) {
  auto full = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 5;
  carve.initial_fraction = 0.4;
  carve.np_ratio = 4.0;
  carve.seed = seed ^ 0x5EEDULL;
  auto stream = CarveDeltaStream(full.value(), carve);
  EXPECT_TRUE(stream.ok());
  return std::move(stream).ValueOrDie();
}

class CoalesceBacklogTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CoalesceBacklogTest, BacklogDrainsAsOneEpochBitwiseEqualToMergedApply) {
  const size_t n = GetParam();
  DeltaStream s = CarvedStream(61);
  DeltaStream s_copy = CarvedStream(61);
  const size_t batches = s.batches.size();

  // Enqueue the whole backlog BEFORE the coordinator starts, so its first
  // wake-up deterministically sees all of it.
  IngestorOptions options;
  options.partition.num_shards = n;
  ShardedIngestor sharded(std::move(s.initial), s.train_anchors,
                          std::move(s.initial_candidates), options);
  ASSERT_TRUE(sharded.Start().ok());
  for (ServeDelta& batch : s.batches) sharded.Submit(std::move(batch));
  sharded.StartBackground();
  sharded.Flush();
  sharded.Stop();
  ASSERT_TRUE(sharded.background_status().ok());

  // One drain across all shards: the drain-level counters are reported
  // once, the factorisations summed.
  const IngestStats stats = sharded.stats();
  EXPECT_EQ(stats.deltas_applied, batches);
  EXPECT_EQ(stats.coalesced_batches, batches - 1);
  EXPECT_EQ(stats.epochs_published, 2u);  // epoch 0 + the single drain
  EXPECT_EQ(sharded.backend().epoch(), 1u);
  EXPECT_EQ(stats.full_factorisations, n);

  // Twin: the merged backlog through the deterministic path — bit-for-bit
  // the same design matrix and published model on every shard.
  ShardedIngestor twin(std::move(s_copy.initial), s_copy.train_anchors,
                       std::move(s_copy.initial_candidates), options);
  ASSERT_TRUE(twin.Start().ok());
  ASSERT_TRUE(
      twin.ApplyOnce(MergeServeDeltas(std::move(s_copy.batches))).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(twin.shard(i).candidates().size(),
              sharded.shard(i).candidates().size());
    EXPECT_EQ(Matrix::MaxAbsDiff(twin.shard(i).design(),
                                 sharded.shard(i).design()),
              0.0);
    auto snap = sharded.shard_service(i).snapshot();
    auto twin_snap = twin.shard_service(i).snapshot();
    ASSERT_EQ(snap->size(), twin_snap->size());
    for (size_t j = 0; j < snap->size(); ++j) {
      EXPECT_EQ(snap->scores(j), twin_snap->scores(j));
      EXPECT_EQ(snap->y(j), twin_snap->y(j));
      EXPECT_EQ(snap->links[j], twin_snap->links[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, CoalesceBacklogTest,
                         ::testing::Values(size_t{1}, size_t{2}));

TEST(CoalesceTest, PerDeltaPolicyKeepsOneEpochPerSubmit) {
  DeltaStream s = CarvedStream(71);
  const size_t batches = s.batches.size();

  IngestorOptions options;
  options.drain = DrainPolicy::kPerDelta;
  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates), options);
  ASSERT_TRUE(ingestor.Start().ok());
  EXPECT_EQ(ingestor.options().drain, DrainPolicy::kPerDelta);
  for (ServeDelta& batch : s.batches) ingestor.Submit(std::move(batch));
  ingestor.StartBackground();
  ingestor.Flush();
  ingestor.Stop();
  ASSERT_TRUE(ingestor.background_status().ok());

  const IngestStats stats = ingestor.stats();
  EXPECT_EQ(stats.deltas_applied, batches);
  EXPECT_EQ(stats.coalesced_batches, 0u);
  EXPECT_EQ(stats.epochs_published, batches + 1);
  EXPECT_EQ(ingestor.backend().epoch(), batches);
}

TEST(CoalesceTest, MergePreservesSubmissionOrder) {
  ServeDelta a;
  a.new_candidates.emplace_back(1, 2);
  ServeDelta graph_only;
  ServeDelta b;
  b.new_candidates.emplace_back(3, 4);
  b.new_candidates.emplace_back(5, 6);
  ServeDelta merged = MergeServeDeltas(
      {std::move(a), std::move(graph_only), std::move(b)});
  ASSERT_EQ(merged.new_candidates.size(), 3u);
  EXPECT_EQ(merged.new_candidates[0], std::make_pair(NodeId{1}, NodeId{2}));
  EXPECT_EQ(merged.new_candidates[1], std::make_pair(NodeId{3}, NodeId{4}));
  EXPECT_EQ(merged.new_candidates[2], std::make_pair(NodeId{5}, NodeId{6}));
  EXPECT_TRUE(merged.candidate_ids.empty());
}

// Opposing operations collapse at merge time: add-then-remove and
// remove-then-re-add are multiset no-ops for edges, anchors and candidate
// pairs, so the merged batch is equivalent to applying the backlog in
// submission order.
TEST(CoalesceTest, MergeCollapsesOpposingEdgeOperations) {
  ServeDelta grow;
  grow.graph.first.edges.push_back({RelationType::kFollow, 1, 2});
  grow.graph.first.edges.push_back({RelationType::kFollow, 3, 4});
  ServeDelta shrink;
  shrink.graph.first.removed_edges.push_back({RelationType::kFollow, 1, 2});
  shrink.graph.first.removed_edges.push_back({RelationType::kFollow, 9, 9});
  ServeDelta merged = MergeServeDeltas({grow, shrink});
  // (1,2) cancelled; (3,4) survives as an add, (9,9) as a removal of a
  // pre-existing edge.
  ASSERT_EQ(merged.graph.first.edges.size(), 1u);
  EXPECT_EQ(merged.graph.first.edges[0].src, NodeId{3});
  ASSERT_EQ(merged.graph.first.removed_edges.size(), 1u);
  EXPECT_EQ(merged.graph.first.removed_edges[0].src, NodeId{9});

  // Remove-then-re-add collapses the other way too.
  ServeDelta readd;
  readd.graph.first.edges.push_back({RelationType::kFollow, 9, 9});
  ServeDelta both = MergeServeDeltas({grow, shrink, readd});
  ASSERT_EQ(both.graph.first.edges.size(), 1u);
  EXPECT_TRUE(both.graph.first.removed_edges.empty());
}

TEST(CoalesceTest, MergeCollapsesAnchorRevealAndRetraction) {
  ServeDelta reveal;
  reveal.graph.new_anchors.push_back({1, 1});
  reveal.graph.new_anchors.push_back({2, 2});
  ServeDelta retract;
  retract.graph.retracted_anchors.push_back({1, 1});
  retract.graph.retracted_anchors.push_back({5, 5});
  ServeDelta merged = MergeServeDeltas({reveal, retract});
  ASSERT_EQ(merged.graph.new_anchors.size(), 1u);
  EXPECT_EQ(merged.graph.new_anchors[0], (AnchorLink{2, 2}));
  ASSERT_EQ(merged.graph.retracted_anchors.size(), 1u);
  EXPECT_EQ(merged.graph.retracted_anchors[0], (AnchorLink{5, 5}));
}

TEST(CoalesceTest, MergeCollapsesCandidateChurn) {
  ServeDelta grow;
  grow.new_candidates.emplace_back(1, 2);
  grow.new_candidates.emplace_back(3, 4);
  ServeDelta shrink;
  shrink.removed_candidates.emplace_back(1, 2);   // cancels the pending add
  shrink.removed_candidates.emplace_back(7, 8);   // removes a served pair
  ServeDelta readd;
  readd.new_candidates.emplace_back(7, 8);        // cancels the removal

  ServeDelta merged = MergeServeDeltas({grow, shrink, readd});
  ASSERT_EQ(merged.new_candidates.size(), 1u);
  EXPECT_EQ(merged.new_candidates[0], std::make_pair(NodeId{3}, NodeId{4}));
  EXPECT_TRUE(merged.removed_candidates.empty());
  EXPECT_TRUE(merged.candidate_ids.empty());
}

TEST(CoalesceTest, MergeRejectsRoutedBatches) {
  // Merging happens before routing, which is what stamps link ids.
  ServeDelta routed;
  routed.new_candidates.emplace_back(1, 2);
  routed.candidate_ids = {10};
  EXPECT_DEATH(MergeServeDeltas({routed}), "before routing");
}

}  // namespace
}  // namespace activeiter
