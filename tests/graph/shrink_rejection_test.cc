// Shrink-path validation (satellite of the deletion-delta refactor): every
// malformed removal — a nonexistent edge, an unknown anchor, a double
// removal — must fail validation atomically, leaving the network, the
// pair and the incidence index exactly as they were.

#include <gtest/gtest.h>

#include "src/graph/aligned_pair.h"
#include "src/graph/hetero_network.h"
#include "src/graph/incidence.h"

namespace activeiter {
namespace {

HeteroNetwork SmallNet(const char* name) {
  HeteroNetwork net(NetworkSchema::SocialNetwork(), name);
  net.AddNodes(NodeType::kUser, 6);
  EXPECT_TRUE(net.AddEdge(RelationType::kFollow, 0, 1).ok());
  EXPECT_TRUE(net.AddEdge(RelationType::kFollow, 1, 2).ok());
  EXPECT_TRUE(net.AddEdge(RelationType::kFollow, 1, 2).ok());  // duplicate
  return net;
}

TEST(ShrinkRejectionTest, RemovingNonexistentEdgeFailsWithoutMutating) {
  HeteroNetwork net = SmallNet("n1");
  const size_t edges_before = net.EdgeCount(RelationType::kFollow);

  GraphDelta delta;
  delta.removed_edges.push_back({RelationType::kFollow, 3, 4});
  EXPECT_EQ(net.ApplyDelta(delta).code(), StatusCode::kNotFound);
  EXPECT_EQ(net.EdgeCount(RelationType::kFollow), edges_before);

  // A mixed batch with one bad removal rejects atomically: the valid
  // additions and removals in the same delta must not land either.
  GraphDelta mixed;
  mixed.edges.push_back({RelationType::kFollow, 2, 3});
  mixed.removed_edges.push_back({RelationType::kFollow, 0, 1});  // valid
  mixed.removed_edges.push_back({RelationType::kFollow, 5, 5});  // absent
  EXPECT_EQ(net.ApplyDelta(mixed).code(), StatusCode::kNotFound);
  EXPECT_EQ(net.EdgeCount(RelationType::kFollow), edges_before);
}

TEST(ShrinkRejectionTest, DoubleRemovalBeyondMultiplicityFails) {
  HeteroNetwork net = SmallNet("n1");
  // (1,2) is stored twice — removing it twice in one batch is fine,
  // three times is not.
  GraphDelta twice;
  twice.removed_edges.push_back({RelationType::kFollow, 1, 2});
  twice.removed_edges.push_back({RelationType::kFollow, 1, 2});
  GraphDelta thrice = twice;
  thrice.removed_edges.push_back({RelationType::kFollow, 1, 2});
  EXPECT_EQ(net.ValidateDelta(thrice).code(), StatusCode::kNotFound);
  const size_t edges_before = net.EdgeCount(RelationType::kFollow);
  EXPECT_EQ(net.ApplyDelta(thrice).code(), StatusCode::kNotFound);
  EXPECT_EQ(net.EdgeCount(RelationType::kFollow), edges_before);
  ASSERT_TRUE(net.ApplyDelta(twice).ok());
  EXPECT_EQ(net.EdgeCount(RelationType::kFollow), edges_before - 2);
}

TEST(ShrinkRejectionTest, RemovalMayConsumeSameBatchAddition) {
  HeteroNetwork net = SmallNet("n1");
  const size_t edges_before = net.EdgeCount(RelationType::kFollow);
  // Add-then-remove of an edge that never existed: net zero, valid.
  GraphDelta delta;
  delta.edges.push_back({RelationType::kFollow, 4, 5});
  delta.removed_edges.push_back({RelationType::kFollow, 4, 5});
  ASSERT_TRUE(net.ApplyDelta(delta).ok());
  EXPECT_EQ(net.EdgeCount(RelationType::kFollow), edges_before);
}

AlignedPair SmallPair() {
  AlignedPair pair(SmallNet("n1"), SmallNet("n2"));
  EXPECT_TRUE(pair.AddAnchor(0, 0).ok());
  EXPECT_TRUE(pair.AddAnchor(1, 1).ok());
  return pair;
}

TEST(ShrinkRejectionTest, RetractingUnknownAnchorFailsWithoutMutating) {
  AlignedPair pair = SmallPair();
  PairDelta delta;
  delta.retracted_anchors.push_back({2, 2});  // never revealed
  EXPECT_EQ(pair.ApplyDelta(delta).code(), StatusCode::kNotFound);
  EXPECT_EQ(pair.anchor_count(), 2u);
  EXPECT_TRUE(pair.IsAnchor(0, 0));
  EXPECT_TRUE(pair.IsAnchor(1, 1));
}

TEST(ShrinkRejectionTest, DoubleRetractionInOneBatchFails) {
  AlignedPair pair = SmallPair();
  PairDelta delta;
  delta.retracted_anchors.push_back({0, 0});
  delta.retracted_anchors.push_back({0, 0});
  EXPECT_EQ(pair.ApplyDelta(delta).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pair.anchor_count(), 2u);
  EXPECT_TRUE(pair.IsAnchor(0, 0));
}

TEST(ShrinkRejectionTest, RetractionFreesUsersForSameBatchReveal) {
  AlignedPair pair = SmallPair();
  // Without the retraction, (0, 2) would violate one-to-one on u1 = 0.
  PairDelta blocked;
  blocked.new_anchors.push_back({0, 2});
  EXPECT_FALSE(pair.ApplyDelta(blocked).ok());

  PairDelta swap;
  swap.retracted_anchors.push_back({0, 0});
  swap.new_anchors.push_back({0, 2});
  ASSERT_TRUE(pair.ApplyDelta(swap).ok());
  EXPECT_EQ(pair.anchor_count(), 2u);
  EXPECT_FALSE(pair.IsAnchor(0, 0));
  EXPECT_TRUE(pair.IsAnchor(0, 2));

  // Atomicity across the batch: a valid retraction bundled with an
  // invalid reveal leaves the pair untouched, retraction included.
  PairDelta bad;
  bad.retracted_anchors.push_back({1, 1});
  bad.new_anchors.push_back({1, 2});  // u2 = 2 is taken by the swap above
  EXPECT_FALSE(pair.ApplyDelta(bad).ok());
  EXPECT_TRUE(pair.IsAnchor(1, 1));
  EXPECT_EQ(pair.anchor_count(), 2u);
}

TEST(ShrinkRejectionTest, IncidenceRemovalValidatesAtomically) {
  AlignedPair pair = SmallPair();
  CandidateLinkSet candidates;
  candidates.Add(0, 0);
  candidates.Add(0, 1);
  candidates.Add(1, 1);
  IncidenceIndex index(pair, candidates);

  // Out of range, duplicates within a batch, and double-removal across
  // batches all reject with the index unchanged.
  EXPECT_EQ(index.RemoveCandidates({3}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(index.RemoveCandidates({1, 1}).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.LinksOfFirst(0).size(), 2u);
  EXPECT_EQ(index.LinksOfSecond(1).size(), 2u);

  ASSERT_TRUE(index.RemoveCandidates({1}).ok());
  EXPECT_EQ(index.RemoveCandidates({1}).code(), StatusCode::kNotFound);
  // Eager pruning: the removed link vanished from every lookup surface
  // even before compaction.
  EXPECT_EQ(index.LinksOfFirst(0).size(), 1u);
  EXPECT_EQ(index.LinksOfSecond(1).size(), 1u);
  EXPECT_EQ(index.FirstIncidenceMatrix().nnz(), 2u);

  // A failed batch after a successful one still mutates nothing: id 1 is
  // tombstoned, so the whole {0, 1} batch must reject and id 0 stays.
  EXPECT_EQ(index.RemoveCandidates({0, 1}).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.LinksOfFirst(0).size(), 1u);

  ASSERT_TRUE(candidates.Remove(1).ok());
  index.CompactWith(candidates.Compact());
  EXPECT_EQ(index.candidate_count(), 2u);
  EXPECT_EQ(candidates.link(1), std::make_pair(NodeId{1}, NodeId{1}));
  EXPECT_EQ(index.LinksOfSecond(1).size(), 1u);
  EXPECT_EQ(index.LinksOfSecond(1)[0], 1u);

  // The index keeps growing normally after a shrink cycle.
  candidates.Add(2, 2);
  index.SyncWithCandidates(pair.first().NodeCount(NodeType::kUser),
                           pair.second().NodeCount(NodeType::kUser));
  EXPECT_EQ(index.candidate_count(), 3u);
  EXPECT_EQ(index.LinksOfFirst(2).size(), 1u);
}

TEST(ShrinkRejectionTest, CandidateSetRemovalIsValidated) {
  CandidateLinkSet candidates;
  candidates.Add(0, 0);
  candidates.Add(1, 1);
  EXPECT_EQ(candidates.Remove(5).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(candidates.Remove(0).ok());
  EXPECT_EQ(candidates.Remove(0).code(), StatusCode::kNotFound);
  EXPECT_TRUE(candidates.removed(0));
  EXPECT_EQ(candidates.removed_count(), 1u);
  // Tombstoned links keep their id/values until Compact.
  EXPECT_EQ(candidates.size(), 2u);
  std::vector<size_t> remap = candidates.Compact();
  ASSERT_EQ(remap.size(), 2u);
  EXPECT_EQ(remap[0], CandidateLinkSet::kRemovedId);
  EXPECT_EQ(remap[1], 0u);
  EXPECT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates.removed_count(), 0u);
  EXPECT_EQ(candidates.link(0), std::make_pair(NodeId{1}, NodeId{1}));
}

}  // namespace
}  // namespace activeiter
