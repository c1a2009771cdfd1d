#include "src/graph/incidence.h"

#include <gtest/gtest.h>

#include "src/linalg/sparse_ops.h"

namespace activeiter {
namespace {

AlignedPair MakePair() {
  HeteroNetwork a(NetworkSchema::SocialNetwork(), "net1");
  a.AddNodes(NodeType::kUser, 3);
  HeteroNetwork b(NetworkSchema::SocialNetwork(), "net2");
  b.AddNodes(NodeType::kUser, 3);
  return AlignedPair(std::move(a), std::move(b));
}

CandidateLinkSet MakeCandidates() {
  // Links: 0:(0,0) 1:(0,1) 2:(1,0) 3:(1,1) 4:(2,2)
  CandidateLinkSet c;
  c.Add(0, 0);
  c.Add(0, 1);
  c.Add(1, 0);
  c.Add(1, 1);
  c.Add(2, 2);
  return c;
}

TEST(CandidateLinkSetTest, AddReturnsIds) {
  CandidateLinkSet c;
  EXPECT_EQ(c.Add(1, 2), 0u);
  EXPECT_EQ(c.Add(3, 4), 1u);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.link(1).first, 3u);
}

TEST(IncidenceIndexTest, LinksPerUser) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  EXPECT_EQ(index.LinksOfFirst(0), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(index.LinksOfSecond(0), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(index.LinksOfFirst(2), (std::vector<size_t>{4}));
}

TEST(IncidenceIndexTest, IncidenceMatricesMatchDefinition) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  SparseMatrix a1 = index.FirstIncidenceMatrix();
  EXPECT_EQ(a1.rows(), 3u);
  EXPECT_EQ(a1.cols(), 5u);
  EXPECT_EQ(a1.At(0, 0), 1.0);
  EXPECT_EQ(a1.At(0, 1), 1.0);
  EXPECT_EQ(a1.At(1, 2), 1.0);
  EXPECT_EQ(a1.At(2, 4), 1.0);
  // Each column has exactly one 1 (each link touches one user per side).
  Vector col_sums = a1.ColSums();
  for (size_t j = 0; j < 5; ++j) EXPECT_EQ(col_sums(j), 1.0);
}

TEST(IncidenceIndexTest, DegreesAreIncidenceTimesLabels) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  Vector y = {1.0, 0.0, 0.0, 1.0, 1.0};
  Vector d1 = index.FirstDegrees(y);
  EXPECT_EQ(d1(0), 1.0);
  EXPECT_EQ(d1(1), 1.0);
  EXPECT_EQ(d1(2), 1.0);
  // Cross-check against the sparse incidence matrix product.
  Vector d1_mat = SpMv(index.FirstIncidenceMatrix(), y);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(d1(i), d1_mat(i));
}

TEST(IncidenceIndexTest, OneToOneSatisfied) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  EXPECT_TRUE(index.SatisfiesOneToOne(Vector{1.0, 0.0, 0.0, 1.0, 1.0}));
  // Links 0 and 1 share u1=0 -> degree 2 violates the constraint.
  EXPECT_FALSE(index.SatisfiesOneToOne(Vector{1.0, 1.0, 0.0, 0.0, 0.0}));
}

TEST(IncidenceIndexTest, SyncWithCandidatesIndexesAppendedLinks) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  EXPECT_EQ(index.candidate_count(), 5u);

  // Grow the universe and the candidate set, then sync.
  PairDelta delta;
  delta.first.nodes.push_back({NodeType::kUser, 1});
  delta.second.nodes.push_back({NodeType::kUser, 1});
  ASSERT_TRUE(pair.ApplyDelta(delta).ok());
  size_t id_a = c.Add(3, 3);
  size_t id_b = c.Add(0, 3);
  index.SyncWithCandidates(pair.first().NodeCount(NodeType::kUser),
                           pair.second().NodeCount(NodeType::kUser));

  EXPECT_EQ(index.candidate_count(), 7u);
  EXPECT_EQ(index.users_first(), 4u);
  ASSERT_EQ(index.LinksOfFirst(3).size(), 1u);
  EXPECT_EQ(index.LinksOfFirst(3)[0], id_a);
  ASSERT_EQ(index.LinksOfSecond(3).size(), 2u);
  EXPECT_EQ(index.LinksOfSecond(3)[0], id_a);
  EXPECT_EQ(index.LinksOfSecond(3)[1], id_b);
  // Existing lists untouched, new links appended to old users' lists.
  std::vector<size_t> of_first0 = index.LinksOfFirst(0);
  ASSERT_EQ(of_first0.size(), 3u);
  EXPECT_EQ(of_first0[2], id_b);
}

TEST(IncidenceIndexDeathTest, OutOfRangeEndpointDies) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c;
  c.Add(7, 0);
  EXPECT_DEATH(IncidenceIndex(pair, c), "out of range");
}

}  // namespace
}  // namespace activeiter
