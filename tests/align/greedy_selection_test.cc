#include "src/align/greedy_selection.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace activeiter {
namespace {

AlignedPair UsersOnlyPair(size_t n1, size_t n2) {
  HeteroNetwork a(NetworkSchema::SocialNetwork(), "n1");
  a.AddNodes(NodeType::kUser, n1);
  HeteroNetwork b(NetworkSchema::SocialNetwork(), "n2");
  b.AddNodes(NodeType::kUser, n2);
  return AlignedPair(std::move(a), std::move(b));
}

struct Fixture {
  AlignedPair pair;
  CandidateLinkSet candidates;
  std::unique_ptr<IncidenceIndex> index;
};

Fixture MakeFixture(size_t n1, size_t n2,
                    const std::vector<std::pair<NodeId, NodeId>>& links) {
  Fixture f{UsersOnlyPair(n1, n2), {}, nullptr};
  for (const auto& [u1, u2] : links) f.candidates.Add(u1, u2);
  f.index = std::make_unique<IncidenceIndex>(f.pair, f.candidates);
  return f;
}

TEST(GreedySelectTest, PicksHighestScoringNonConflicting) {
  // Links: (0,0)=0.9, (0,1)=0.8, (1,1)=0.7 — greedy takes (0,0) then (1,1).
  Fixture f = MakeFixture(2, 2, {{0, 0}, {0, 1}, {1, 1}});
  Vector scores = {0.9, 0.8, 0.7};
  std::vector<Pin> pins(3, Pin::kFree);
  Vector y = GreedySelect(scores, *f.index, pins, 0.5);
  EXPECT_EQ(y(0), 1.0);
  EXPECT_EQ(y(1), 0.0);
  EXPECT_EQ(y(2), 1.0);
}

TEST(GreedySelectTest, ThresholdExcludesWeakLinks) {
  Fixture f = MakeFixture(2, 2, {{0, 0}, {1, 1}});
  Vector scores = {0.9, 0.3};
  std::vector<Pin> pins(2, Pin::kFree);
  Vector y = GreedySelect(scores, *f.index, pins, 0.5);
  EXPECT_EQ(y(0), 1.0);
  EXPECT_EQ(y(1), 0.0);
}

TEST(GreedySelectTest, PinnedPositiveBlocksEndpoints) {
  // (0,0) pinned positive; the high-scoring (0,1) must be rejected.
  Fixture f = MakeFixture(2, 2, {{0, 0}, {0, 1}, {1, 1}});
  Vector scores = {0.1, 0.99, 0.8};
  std::vector<Pin> pins = {Pin::kPositive, Pin::kFree, Pin::kFree};
  Vector y = GreedySelect(scores, *f.index, pins, 0.5);
  EXPECT_EQ(y(0), 1.0);  // pinned
  EXPECT_EQ(y(1), 0.0);  // conflicts with the pin
  EXPECT_EQ(y(2), 1.0);
}

TEST(GreedySelectTest, PinnedNegativeNeverSelected) {
  Fixture f = MakeFixture(1, 1, {{0, 0}});
  Vector scores = {0.99};
  std::vector<Pin> pins = {Pin::kNegative};
  Vector y = GreedySelect(scores, *f.index, pins, 0.5);
  EXPECT_EQ(y(0), 0.0);
}

TEST(GreedySelectTest, ResultAlwaysSatisfiesOneToOne) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n1 = 6, n2 = 7;
    std::vector<std::pair<NodeId, NodeId>> links;
    for (NodeId i = 0; i < n1; ++i) {
      for (NodeId j = 0; j < n2; ++j) {
        if (rng.Bernoulli(0.4)) links.emplace_back(i, j);
      }
    }
    if (links.empty()) continue;
    Fixture f = MakeFixture(n1, n2, links);
    Vector scores(links.size());
    for (size_t i = 0; i < links.size(); ++i) scores(i) = rng.UniformDouble();
    std::vector<Pin> pins(links.size(), Pin::kFree);
    Vector y = GreedySelect(scores, *f.index, pins, 0.3);
    EXPECT_TRUE(f.index->SatisfiesOneToOne(y)) << "trial " << trial;
  }
}

TEST(GreedySelectTest, DeterministicTieBreakByLinkId) {
  Fixture f = MakeFixture(2, 2, {{0, 0}, {0, 1}});
  Vector scores = {0.7, 0.7};
  std::vector<Pin> pins(2, Pin::kFree);
  Vector y = GreedySelect(scores, *f.index, pins, 0.5);
  EXPECT_EQ(y(0), 1.0);  // lower id wins the tie
  EXPECT_EQ(y(1), 0.0);
}

TEST(GreedySelectTest, EmptyCandidateSet) {
  Fixture f = MakeFixture(1, 1, {});
  Vector y = GreedySelect(Vector(), *f.index, {}, 0.5);
  EXPECT_EQ(y.size(), 0u);
}

/// Greedy selection written from its definition: pinned positives take
/// capacity first (even past it), then free links scoring above the
/// threshold are visited by decreasing score and accepted while both
/// endpoints have capacity left. The sort is stable over link ids, so
/// equal scores, +0.0 and −0.0 included, are visited in link-id order.
Vector ReferenceGreedy(const Vector& scores, const Fixture& f,
                       const std::vector<Pin>& pins, double threshold,
                       size_t capacity_first, size_t capacity_second) {
  const size_t n = scores.size();
  Vector y(n);
  std::vector<size_t> used_first(f.index->users_first(), 0);
  std::vector<size_t> used_second(f.index->users_second(), 0);
  std::vector<size_t> order;
  for (size_t l = 0; l < n; ++l) {
    const auto& [u1, u2] = f.candidates.link(l);
    if (pins[l] == Pin::kPositive) {
      y(l) = 1.0;
      ++used_first[u1];
      ++used_second[u2];
    } else if (pins[l] == Pin::kFree && scores(l) > threshold) {
      order.push_back(l);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores(a) > scores(b);
  });
  for (size_t l : order) {
    const auto& [u1, u2] = f.candidates.link(l);
    if (used_first[u1] < capacity_first && used_second[u2] < capacity_second) {
      y(l) = 1.0;
      ++used_first[u1];
      ++used_second[u2];
    }
  }
  return y;
}

TEST(GreedySelectTest, MatchesSortedDefinition) {
  // Small random instances: few users and repeated pairs, so endpoints
  // conflict often and pinned positives can exceed a capacity. Scores sit
  // on a dyadic grid, so ties occur; a zero score is +0.0 or −0.0 at
  // random, two equal scores that compete only under the negative
  // threshold.
  const double kStep = 1.0 / 8.0;
  const size_t kCapacities[][2] = {{1, 1}, {2, 1}, {1, 3}, {2, 2}};
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    const size_t users1 = 1 + rng.UniformInt(6);
    const size_t users2 = 1 + rng.UniformInt(6);
    std::vector<std::pair<NodeId, NodeId>> links(rng.UniformInt(41));
    for (auto& link : links) {
      link = {static_cast<NodeId>(rng.UniformInt(users1)),
              static_cast<NodeId>(rng.UniformInt(users2))};
    }
    Fixture f = MakeFixture(users1, users2, links);
    const size_t n = links.size();
    Vector scores(n);
    std::vector<Pin> pins(n, Pin::kFree);
    for (size_t l = 0; l < n; ++l) {
      scores(l) = static_cast<double>(rng.UniformRange(-4, 8)) * kStep;
      if (scores(l) == 0.0 && rng.Bernoulli(0.5)) scores(l) = -0.0;
      const double pin = rng.UniformDouble();
      if (pin < 0.15) pins[l] = Pin::kPositive;
      if (pin > 0.85) pins[l] = Pin::kNegative;
    }
    for (double threshold : {-0.25, 0.0, 0.25}) {
      for (const auto& [cap1, cap2] : kCapacities) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " threshold "
                                        << threshold << " capacities "
                                        << cap1 << "," << cap2);
        const Vector y = GreedySelectWithCapacity(scores, *f.index, pins,
                                                  threshold, cap1, cap2);
        ASSERT_EQ(y.values(),
                  ReferenceGreedy(scores, f, pins, threshold, cap1, cap2)
                      .values());
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 36000u);
}

TEST(GreedyCapacityTest, CapacityTwoAdmitsTwoLinksPerUser) {
  // User 0 of network 1 has three strong links; capacity 2 keeps two.
  Fixture f = MakeFixture(1, 3, {{0, 0}, {0, 1}, {0, 2}});
  Vector scores = {0.9, 0.8, 0.7};
  std::vector<Pin> pins(3, Pin::kFree);
  Vector y = GreedySelectWithCapacity(scores, *f.index, pins, 0.5, 2, 1);
  EXPECT_EQ(y(0), 1.0);
  EXPECT_EQ(y(1), 1.0);
  EXPECT_EQ(y(2), 0.0);
  EXPECT_TRUE(f.index->SatisfiesCardinality(y, 2, 1));
  EXPECT_FALSE(f.index->SatisfiesOneToOne(y));
}

TEST(GreedyCapacityTest, CapacityOneMatchesGreedySelect) {
  Rng rng(9);
  Fixture f = MakeFixture(4, 4, {{0, 0}, {0, 1}, {1, 1}, {2, 3}, {3, 2}});
  Vector scores(5);
  for (size_t i = 0; i < 5; ++i) scores(i) = rng.UniformDouble();
  std::vector<Pin> pins(5, Pin::kFree);
  Vector a = GreedySelect(scores, *f.index, pins, 0.2);
  Vector b = GreedySelectWithCapacity(scores, *f.index, pins, 0.2, 1, 1);
  EXPECT_EQ((a - b).Norm1(), 0.0);
}

TEST(GreedyCapacityTest, PinnedPositivesConsumeCapacity) {
  Fixture f = MakeFixture(1, 2, {{0, 0}, {0, 1}});
  Vector scores = {0.1, 0.95};
  std::vector<Pin> pins = {Pin::kPositive, Pin::kFree};
  Vector y = GreedySelectWithCapacity(scores, *f.index, pins, 0.5, 2, 1);
  // Capacity 2 on side 1: the pin uses one slot, (0,1) takes the other.
  EXPECT_EQ(y(0), 1.0);
  EXPECT_EQ(y(1), 1.0);
  Vector y1 = GreedySelectWithCapacity(scores, *f.index, pins, 0.5, 1, 1);
  EXPECT_EQ(y1(1), 0.0);  // capacity 1: the pin exhausts user 0
}

TEST(GreedyCapacityDeathTest, ZeroCapacityDies) {
  Fixture f = MakeFixture(1, 1, {{0, 0}});
  Vector scores = {0.9};
  std::vector<Pin> pins(1, Pin::kFree);
  EXPECT_DEATH(GreedySelectWithCapacity(scores, *f.index, pins, 0.5, 0, 1),
               "capacities");
}

}  // namespace
}  // namespace activeiter
