#include "src/metadiagram/proximity.h"

#include <memory>

#include <gtest/gtest.h>

namespace activeiter {
namespace {

TEST(ProximityTest, DiceFormula) {
  // counts: (0,0)=2 with row0 total 4 and col0 total 3 -> 2*2/(4+3).
  auto counts = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 2.0}, {1, 0, 1.0}});
  ProximityScores prox(counts);
  EXPECT_NEAR(prox.Score(0, 0), 4.0 / 7.0, 1e-12);
}

TEST(ProximityTest, ZeroCountGivesZeroScore) {
  auto counts = SparseMatrix::FromTriplets(2, 2, {{0, 0, 5.0}});
  ProximityScores prox(counts);
  EXPECT_EQ(prox.Score(1, 1), 0.0);
  EXPECT_EQ(prox.Score(0, 1), 0.0);
}

TEST(ProximityTest, IsolatedPairScoresOne) {
  // A single instance between the pair and nothing else: s = 2*1/(1+1) = 1.
  auto counts = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}});
  ProximityScores prox(counts);
  EXPECT_EQ(prox.Score(0, 0), 1.0);
}

TEST(ProximityTest, ScoreIsBoundedByOne) {
  auto counts = SparseMatrix::FromTriplets(
      3, 3, {{0, 0, 3.0}, {0, 1, 1.0}, {2, 0, 2.0}, {1, 1, 4.0}});
  ProximityScores prox(counts);
  for (NodeId i = 0; i < 3; ++i) {
    for (NodeId j = 0; j < 3; ++j) {
      EXPECT_LE(prox.Score(i, j), 1.0);
      EXPECT_GE(prox.Score(i, j), 0.0);
    }
  }
}

TEST(ProximityTest, PenalisesPromiscuousUsers) {
  // Same pairwise count, but user 0 has many other instances.
  auto focused = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}});
  auto promiscuous = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 5.0}});
  EXPECT_GT(ProximityScores(focused).Score(0, 0),
            ProximityScores(promiscuous).Score(0, 0));
}

TEST(ProximityTest, ScoresForCandidates) {
  auto counts = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  ProximityScores prox(counts);
  CandidateLinkSet candidates;
  candidates.Add(0, 0);
  candidates.Add(0, 1);
  candidates.Add(1, 1);
  Vector scores = prox.ScoresFor(candidates);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_EQ(scores(0), 1.0);
  EXPECT_EQ(scores(1), 0.0);
  EXPECT_EQ(scores(2), 1.0);
}

TEST(ProximityTest, CarriedForwardPadsAndAddsTheDeltaSums) {
  auto counts = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 2.0}, {1, 0, 1.0}});
  ProximityScores prox(counts);
  // No Δ: padded to grown universes, every score kept, new users score 0.
  ProximityScores padded = prox.CarriedForward(
      std::make_shared<const SparseMatrix>(counts.PaddedTo(4, 5)), nullptr);
  EXPECT_EQ(padded.Score(0, 0), prox.Score(0, 0));
  EXPECT_EQ(padded.Score(1, 0), prox.Score(1, 0));
  EXPECT_EQ(padded.Score(3, 0), 0.0);
  EXPECT_EQ(padded.Score(0, 4), 0.0);
  EXPECT_EQ(padded.counts().rows(), 4u);
  EXPECT_EQ(padded.counts().cols(), 5u);
  // With a Δ that empties row 1, grows (0, 1) and reaches a new user: the
  // carried sums are the fresh table's, so every Dice value is too.
  auto now = SparseMatrix::FromTriplets(
      4, 5, {{0, 0, 2.0}, {0, 1, 5.0}, {3, 4, 1.0}});
  auto delta = SparseMatrix::FromTriplets(
      4, 5, {{0, 1, 3.0}, {1, 0, -1.0}, {3, 4, 1.0}});
  ProximityScores carried =
      prox.CarriedForward(std::make_shared<const SparseMatrix>(now), &delta);
  ProximityScores fresh(now);
  for (NodeId u1 = 0; u1 < 4; ++u1) {
    for (NodeId u2 = 0; u2 < 5; ++u2) {
      EXPECT_EQ(carried.Score(u1, u2), fresh.Score(u1, u2));
      EXPECT_EQ(carried.DiceOf(u1, u2, 1.0), fresh.DiceOf(u1, u2, 1.0))
          << u1 << ", " << u2;
    }
  }
}

TEST(ProximityDeathTest, RejectsCountsWithoutAnOwner) {
  const SparseMatrix counts(2, 2);
  // The evaluator's non-owning view of a context step.
  std::shared_ptr<const SparseMatrix> alias(std::shared_ptr<const void>(),
                                            &counts);
  EXPECT_DEATH(ProximityScores{alias}, "own their storage");
}

}  // namespace
}  // namespace activeiter
