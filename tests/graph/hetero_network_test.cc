#include "src/graph/hetero_network.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/linalg/sparse_ops.h"
#include "tests/linalg/csr_bitwise.h"

namespace activeiter {
namespace {

HeteroNetwork SmallNetwork() {
  HeteroNetwork net(NetworkSchema::SocialNetwork(), "test-net");
  net.AddNodes(NodeType::kUser, 3);
  net.AddNodes(NodeType::kPost, 2);
  net.AddNodes(NodeType::kLocation, 2);
  net.AddNodes(NodeType::kTimestamp, 2);
  net.AddNodes(NodeType::kWord, 1);
  return net;
}

TEST(HeteroNetworkTest, NodeCounting) {
  HeteroNetwork net = SmallNetwork();
  EXPECT_EQ(net.NodeCount(NodeType::kUser), 3u);
  EXPECT_EQ(net.NodeCount(NodeType::kPost), 2u);
  EXPECT_EQ(net.TotalNodeCount(), 10u);
}

TEST(HeteroNetworkTest, AddNodesReturnsFirstId) {
  HeteroNetwork net(NetworkSchema::SocialNetwork());
  EXPECT_EQ(net.AddNodes(NodeType::kUser, 5), 0u);
  EXPECT_EQ(net.AddNodes(NodeType::kUser, 3), 5u);
  EXPECT_EQ(net.NodeCount(NodeType::kUser), 8u);
}

TEST(HeteroNetworkTest, AddEdgeValidatesRange) {
  HeteroNetwork net = SmallNetwork();
  EXPECT_TRUE(net.AddEdge(RelationType::kFollow, 0, 1).ok());
  Status st = net.AddEdge(RelationType::kFollow, 0, 9);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  st = net.AddEdge(RelationType::kWrite, 5, 0);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST(HeteroNetworkTest, AddEdgeValidatesSchema) {
  HeteroNetwork net(NetworkSchema::UsersOnly());
  net.AddNodes(NodeType::kUser, 2);
  Status st = net.AddEdge(RelationType::kWrite, 0, 0);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(HeteroNetworkTest, AdjacencyMatrixShape) {
  HeteroNetwork net = SmallNetwork();
  ASSERT_TRUE(net.AddEdge(RelationType::kWrite, 1, 0).ok());
  SparseMatrix adj = net.AdjacencyMatrix(RelationType::kWrite);
  EXPECT_EQ(adj.rows(), 3u);  // users
  EXPECT_EQ(adj.cols(), 2u);  // posts
  EXPECT_EQ(adj.At(1, 0), 1.0);
  EXPECT_EQ(adj.At(0, 0), 0.0);
}

TEST(HeteroNetworkTest, AdjacencyDeduplicatesParallelEdges) {
  HeteroNetwork net = SmallNetwork();
  ASSERT_TRUE(net.AddEdge(RelationType::kFollow, 0, 1).ok());
  ASSERT_TRUE(net.AddEdge(RelationType::kFollow, 0, 1).ok());
  SparseMatrix adj = net.AdjacencyMatrix(RelationType::kFollow);
  EXPECT_EQ(adj.At(0, 1), 1.0);
  EXPECT_EQ(net.EdgeCount(RelationType::kFollow), 2u);  // raw edges kept
}

/// The definition AdjacencyMatrix must reproduce bitwise: the edge list
/// as triplets, sorted and summed by FromTriplets, then binarized.
SparseMatrix AdjacencyByDefinition(const HeteroNetwork& net,
                                   RelationType relation) {
  std::vector<Triplet> trips;
  for (const auto& [src, dst] : net.Edges(relation)) {
    trips.push_back({src, dst, 1.0});
  }
  return Binarize(SparseMatrix::FromTriplets(
      net.NodeCount(RelationSourceType(relation)),
      net.NodeCount(RelationTargetType(relation)), std::move(trips)));
}

void ExpectEveryRelationMatchesDefinition(const HeteroNetwork& net,
                                          const std::string& what) {
  for (int r = 0; r < kNumRelationTypes; ++r) {
    const RelationType relation = static_cast<RelationType>(r);
    EXPECT_TRUE(CsrBitwiseEqual(net.AdjacencyMatrix(relation),
                                AdjacencyByDefinition(net, relation)))
        << what << " relation " << RelationTypeName(relation);
  }
}

TEST(HeteroNetworkTest, AdjacencyMatrixMatchesSortedDefinition) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string what = "seed " + std::to_string(seed);
    Rng rng(seed);
    HeteroNetwork net(NetworkSchema::SocialNetwork());
    net.AddNodes(NodeType::kUser, 24);
    net.AddNodes(NodeType::kPost, 40);
    net.AddNodes(NodeType::kWord, 9);
    net.AddNodes(NodeType::kLocation, 6);
    net.AddNodes(NodeType::kTimestamp, 7);
    // No edges yet: every row empty.
    ExpectEveryRelationMatchesDefinition(net, what + " empty");
    // Edges in random order over the first 3/4 of each source range (the
    // trailing rows stay empty), one relation left without edges, and a
    // fifth of the edges inserted twice.
    for (int r = 0; r + 1 < kNumRelationTypes; ++r) {
      const RelationType relation = static_cast<RelationType>(
          (static_cast<uint64_t>(r) + seed) % kNumRelationTypes);
      const size_t sources =
          net.NodeCount(RelationSourceType(relation)) * 3 / 4;
      const size_t targets = net.NodeCount(RelationTargetType(relation));
      for (int e = 0; e < 90; ++e) {
        const auto src = static_cast<NodeId>(rng.UniformInt(sources));
        const auto dst = static_cast<NodeId>(rng.UniformInt(targets));
        ASSERT_TRUE(net.AddEdge(relation, src, dst).ok());
        if (rng.UniformDouble() < 0.2) {
          ASSERT_TRUE(net.AddEdge(relation, src, dst).ok());
        }
      }
    }
    ExpectEveryRelationMatchesDefinition(net, what);
    // Removals take one stored occurrence each: some duplicates keep one
    // copy, other edges vanish.
    GraphDelta shrink;
    for (int r = 0; r < kNumRelationTypes; ++r) {
      const RelationType relation = static_cast<RelationType>(r);
      const auto& edges = net.Edges(relation);
      for (size_t e = 0; e < edges.size(); e += 3) {
        shrink.removed_edges.push_back(
            {relation, edges[e].first, edges[e].second});
      }
    }
    ASSERT_TRUE(net.ApplyDelta(shrink).ok());
    ExpectEveryRelationMatchesDefinition(net, what + " after removals");
  }
}

TEST(HeteroNetworkTest, FollowOutDegree) {
  HeteroNetwork net = SmallNetwork();
  ASSERT_TRUE(net.AddEdge(RelationType::kFollow, 0, 1).ok());
  ASSERT_TRUE(net.AddEdge(RelationType::kFollow, 0, 2).ok());
  EXPECT_EQ(net.FollowOutDegree(0), 2u);
  EXPECT_EQ(net.FollowOutDegree(1), 0u);
}

TEST(HeteroNetworkTest, ToStringMentionsName) {
  HeteroNetwork net = SmallNetwork();
  EXPECT_NE(net.ToString().find("test-net"), std::string::npos);
}

TEST(HeteroNetworkTest, TotalEdgeCount) {
  HeteroNetwork net = SmallNetwork();
  ASSERT_TRUE(net.AddEdge(RelationType::kFollow, 0, 1).ok());
  ASSERT_TRUE(net.AddEdge(RelationType::kWrite, 0, 0).ok());
  ASSERT_TRUE(net.AddEdge(RelationType::kCheckin, 0, 1).ok());
  EXPECT_EQ(net.TotalEdgeCount(), 3u);
}

TEST(GraphDeltaTest, TouchedRelationsAndNodeGrowth) {
  GraphDelta delta;
  delta.nodes.push_back({NodeType::kUser, 3});
  delta.nodes.push_back({NodeType::kUser, 2});
  delta.nodes.push_back({NodeType::kPost, 1});
  delta.edges.push_back({RelationType::kWrite, 0, 0});
  delta.edges.push_back({RelationType::kFollow, 0, 1});
  delta.edges.push_back({RelationType::kWrite, 1, 0});
  EXPECT_EQ(delta.NodeGrowth(NodeType::kUser), 5u);
  EXPECT_EQ(delta.NodeGrowth(NodeType::kPost), 1u);
  std::vector<RelationType> touched = delta.TouchedRelations();
  ASSERT_EQ(touched.size(), 2u);
  EXPECT_EQ(touched[0], RelationType::kFollow);
  EXPECT_EQ(touched[1], RelationType::kWrite);
}

TEST(HeteroNetworkDeltaTest, AppliesNodesAndEdges) {
  HeteroNetwork net = SmallNetwork();
  GraphDelta delta;
  delta.nodes.push_back({NodeType::kUser, 2});
  // Edges may reference nodes added by the same batch (ids 3 and 4).
  delta.edges.push_back({RelationType::kFollow, 3, 4});
  delta.edges.push_back({RelationType::kFollow, 0, 3});
  ASSERT_TRUE(net.ApplyDelta(delta).ok());
  EXPECT_EQ(net.NodeCount(NodeType::kUser), 5u);
  EXPECT_EQ(net.EdgeCount(RelationType::kFollow), 2u);
  SparseMatrix adj = net.AdjacencyMatrix(RelationType::kFollow);
  EXPECT_EQ(adj.rows(), 5u);
  EXPECT_EQ(adj.At(3, 4), 1.0);
}

TEST(HeteroNetworkDeltaTest, InvalidDeltaLeavesNetworkUntouched) {
  HeteroNetwork net = SmallNetwork();
  GraphDelta delta;
  delta.nodes.push_back({NodeType::kUser, 1});
  delta.edges.push_back({RelationType::kFollow, 0, 3});   // valid post-growth
  delta.edges.push_back({RelationType::kFollow, 0, 99});  // out of range
  Status st = net.ApplyDelta(delta);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(net.NodeCount(NodeType::kUser), 3u);
  EXPECT_EQ(net.EdgeCount(RelationType::kFollow), 0u);
}

}  // namespace
}  // namespace activeiter
