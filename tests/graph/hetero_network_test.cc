#include "src/graph/hetero_network.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/string_util.h"
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

using EdgeLists =
    std::array<std::vector<std::pair<NodeId, NodeId>>, kNumRelationTypes>;

EdgeLists EdgesOf(const HeteroNetwork& net) {
  EdgeLists out;
  for (int r = 0; r < kNumRelationTypes; ++r) {
    out[r] = net.Edges(static_cast<RelationType>(r));
  }
  return out;
}

/// The quadratic definition of a batch's edge changes: each removal counts
/// the stored occurrences, the batch's additions and the earlier removals
/// of its edge, and the batch applies by appending the additions and then
/// erasing each removal's first occurrence. Nodes and range checks are
/// left to ApplyDelta's other tests.
Status ApplyByDefinition(EdgeLists* edges, const GraphDelta& delta) {
  for (size_t i = 0; i < delta.removed_edges.size(); ++i) {
    const EdgeDelta& r = delta.removed_edges[i];
    const auto same = [&r](const EdgeDelta& e) {
      return e.relation == r.relation && e.src == r.src && e.dst == r.dst;
    };
    const auto& list = (*edges)[static_cast<size_t>(r.relation)];
    const size_t available =
        static_cast<size_t>(std::count(list.begin(), list.end(),
                                       std::make_pair(r.src, r.dst))) +
        static_cast<size_t>(
            std::count_if(delta.edges.begin(), delta.edges.end(), same));
    const size_t removed_before = static_cast<size_t>(std::count_if(
        delta.removed_edges.begin(), delta.removed_edges.begin() + i, same));
    if (removed_before >= available) {
      return Status::NotFound(StrFormat(
          "removal of edge (%u -> %u) relation %s: no stored occurrence "
          "left to remove",
          r.src, r.dst, RelationTypeName(r.relation)));
    }
  }
  for (const EdgeDelta& e : delta.edges) {
    (*edges)[static_cast<size_t>(e.relation)].emplace_back(e.src, e.dst);
  }
  for (const EdgeDelta& r : delta.removed_edges) {
    auto& list = (*edges)[static_cast<size_t>(r.relation)];
    list.erase(std::find(list.begin(), list.end(),
                         std::make_pair(r.src, r.dst)));
  }
  return Status::OK();
}

TEST(HeteroNetworkDeltaTest, RemovalsMatchTheQuadraticDefinition) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    HeteroNetwork net(NetworkSchema::SocialNetwork(), "removals");
    net.AddNodes(NodeType::kUser, 6);
    net.AddNodes(NodeType::kPost, 5);
    net.AddNodes(NodeType::kLocation, 3);
    // Few endpoints, so edges repeat: multi-edges in every relation.
    auto random_edge = [&](RelationType relation) {
      return EdgeDelta{relation,
                       static_cast<NodeId>(rng.UniformInt(
                           net.NodeCount(RelationSourceType(relation)))),
                       static_cast<NodeId>(rng.UniformInt(
                           net.NodeCount(RelationTargetType(relation))))};
    };
    const RelationType relations[] = {RelationType::kFollow,
                                      RelationType::kWrite,
                                      RelationType::kCheckin};
    for (int e = 0; e < 40; ++e) {
      const EdgeDelta edge = random_edge(relations[rng.UniformInt(3)]);
      ASSERT_TRUE(net.AddEdge(edge.relation, edge.src, edge.dst).ok());
    }
    EdgeLists reference = EdgesOf(net);
    for (int round = 0; round < 4; ++round) {
      GraphDelta batch;
      for (int e = 0; e < 8; ++e) {
        batch.edges.push_back(random_edge(relations[rng.UniformInt(3)]));
      }
      // Removals of stored edges, some repeated, and of edges this batch
      // adds (the last two additions, one of them twice if it was added
      // twice).
      for (const RelationType relation : relations) {
        const auto& stored = net.Edges(relation);
        for (size_t e = 0; e < stored.size(); e += 4 + rng.UniformInt(4)) {
          batch.removed_edges.push_back(
              {relation, stored[e].first, stored[e].second});
          if (rng.UniformDouble() < 0.3) {
            batch.removed_edges.push_back(batch.removed_edges.back());
          }
        }
      }
      batch.removed_edges.push_back(batch.edges[6]);
      batch.removed_edges.push_back(batch.edges[7]);
      // Drop the removals a definition would reject, so this batch is
      // accepted: each (edge) may go at most as often as it is held.
      GraphDelta accepted = batch;
      accepted.removed_edges.clear();
      for (const EdgeDelta& r : batch.removed_edges) {
        accepted.removed_edges.push_back(r);
        EdgeLists probe = reference;
        if (!ApplyByDefinition(&probe, accepted).ok()) {
          accepted.removed_edges.pop_back();
        }
      }
      ASSERT_TRUE(ApplyByDefinition(&reference, accepted).ok());
      ASSERT_TRUE(net.ApplyDelta(accepted).ok());
      ASSERT_EQ(EdgesOf(net), reference) << "round " << round;
    }

    // One removal too many of an edge held twice or more: rejected with
    // the definition's status, nothing mutated.
    GraphDelta over;
    over.nodes.push_back({NodeType::kUser, 1});
    over.edges.push_back(random_edge(RelationType::kFollow));
    const EdgeDelta held = over.edges.front();
    const auto& follows = reference[static_cast<size_t>(RelationType::kFollow)];
    const size_t copies =
        1 + static_cast<size_t>(std::count(follows.begin(), follows.end(),
                                           std::make_pair(held.src,
                                                          held.dst)));
    for (size_t c = 0; c <= copies; ++c) over.removed_edges.push_back(held);
    EdgeLists probe = reference;
    const Status expected = ApplyByDefinition(&probe, over);
    const Status got = net.ApplyDelta(over);
    EXPECT_EQ(got.code(), StatusCode::kNotFound);
    EXPECT_EQ(got.ToString(), expected.ToString());
    EXPECT_EQ(EdgesOf(net), reference);
    EXPECT_EQ(net.NodeCount(NodeType::kUser), 6u);

    // A removal whose source lies far outside the universe holds no
    // occurrence: rejected the same way, nothing mutated.
    GraphDelta outside;
    outside.edges.push_back(random_edge(RelationType::kWrite));
    outside.removed_edges.push_back(outside.edges.front());
    outside.removed_edges.push_back(
        {RelationType::kWrite, static_cast<NodeId>(0xFFFFFFF0u), 0});
    probe = reference;
    const Status expected_outside = ApplyByDefinition(&probe, outside);
    const Status got_outside = net.ApplyDelta(outside);
    EXPECT_EQ(got_outside.code(), StatusCode::kNotFound);
    EXPECT_EQ(got_outside.ToString(), expected_outside.ToString());
    EXPECT_EQ(EdgesOf(net), reference);
  }
}

}  // namespace
}  // namespace activeiter
