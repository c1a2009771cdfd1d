#include "src/align/greedy_selection.h"

#include <algorithm>
#include <limits>
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

TEST(GreedySelectTest, NeverSelectsTombstonedLink) {
  // Link 0 is removed but not compacted. A scan over every link id would
  // take it first and block both its endpoints; the per-user lists no
  // longer hold it, so links 1 and 2 are both free to take.
  Fixture f = MakeFixture(2, 2, {{0, 0}, {0, 1}, {1, 0}});
  ASSERT_TRUE(f.index->RemoveCandidates({0}).ok());
  const Vector scores = {0.9, 0.5, 0.4};
  std::vector<Pin> pins(3, Pin::kFree);
  const std::vector<double> expected = {0.0, 1.0, 1.0};
  EXPECT_EQ(GreedySelect(scores, *f.index, pins, 0.0).values(), expected);
  pins[0] = Pin::kPositive;  // a pin does not revive a removed link
  EXPECT_EQ(GreedySelect(scores, *f.index, pins, 0.0).values(), expected);
}

/// Greedy selection written from its definition: pinned positives take
/// their endpoints first (even when they conflict), then free links
/// scoring above the threshold are visited by decreasing score and
/// accepted while both endpoints are untaken. The sort is stable over
/// link ids, so equal scores, +0.0 and −0.0 and equal infinities
/// included, are visited in link-id order.
Vector ReferenceGreedy(const Vector& scores, const Fixture& f,
                       const std::vector<Pin>& pins, double threshold) {
  const size_t n = scores.size();
  Vector y(n);
  std::vector<bool> taken_first(f.index->users_first(), false);
  std::vector<bool> taken_second(f.index->users_second(), false);
  std::vector<size_t> order;
  for (size_t l = 0; l < n; ++l) {
    const auto& [u1, u2] = f.candidates.link(l);
    if (pins[l] == Pin::kPositive) {
      y(l) = 1.0;
      taken_first[u1] = true;
      taken_second[u2] = true;
    } else if (pins[l] == Pin::kFree && scores(l) > threshold) {
      order.push_back(l);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores(a) > scores(b);
  });
  for (size_t l : order) {
    const auto& [u1, u2] = f.candidates.link(l);
    if (!taken_first[u1] && !taken_second[u2]) {
      y(l) = 1.0;
      taken_first[u1] = true;
      taken_second[u2] = true;
    }
  }
  return y;
}

/// The inputs of one selection, without the index (built by MakeFixture).
struct Instance {
  size_t users1 = 0;
  size_t users2 = 0;
  std::vector<std::pair<NodeId, NodeId>> links;
  Vector scores;
  std::vector<Pin> pins;
};

/// A small random instance: few users and repeated pairs, so endpoints
/// conflict often. Each link draws its score with `draw_score`, then is
/// pinned positive with probability `positive` and negative with
/// probability 0.15.
template <typename DrawScore>
Instance RandomInstance(uint64_t seed, double positive,
                        DrawScore draw_score) {
  Rng rng(seed);
  Instance in;
  in.users1 = 1 + rng.UniformInt(6);
  in.users2 = 1 + rng.UniformInt(6);
  in.links.resize(rng.UniformInt(41));
  for (auto& link : in.links) {
    link = {static_cast<NodeId>(rng.UniformInt(in.users1)),
            static_cast<NodeId>(rng.UniformInt(in.users2))};
  }
  const size_t n = in.links.size();
  in.scores = Vector(n);
  in.pins.assign(n, Pin::kFree);
  for (size_t l = 0; l < n; ++l) {
    in.scores(l) = draw_score(rng);
    const double pin = rng.UniformDouble();
    if (pin < positive) in.pins[l] = Pin::kPositive;
    if (pin > 0.85) in.pins[l] = Pin::kNegative;
  }
  return in;
}

/// A score on a dyadic grid, so ties occur; a zero score is +0.0 or −0.0
/// at random, two equal scores that compete only under the negative
/// threshold.
double GridScore(Rng& rng) {
  double score = static_cast<double>(rng.UniformRange(-4, 8)) / 8.0;
  if (score == 0.0 && rng.Bernoulli(0.5)) score = -0.0;
  return score;
}

TEST(GreedySelectTest, MatchesSortedDefinition) {
  // Grid scores with signed zeros, both pin kinds; pinned positives may
  // conflict with each other.
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 12000; ++seed) {
    const Instance in = RandomInstance(seed, 0.15, GridScore);
    Fixture f = MakeFixture(in.users1, in.users2, in.links);
    for (double threshold : {-0.25, 0.0, 0.25}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " threshold "
                                      << threshold);
      ASSERT_EQ(GreedySelect(in.scores, *f.index, in.pins, threshold)
                    .values(),
                ReferenceGreedy(in.scores, f, in.pins, threshold).values());
      ++compared;
    }
  }
  EXPECT_EQ(compared, 36000u);
}

TEST(GreedySelectTest, MatchesSortedDefinitionWithInfiniteScores) {
  // ±inf scores tie with each other and sit past every finite threshold;
  // an infinite threshold admits everything but −inf, or nothing.
  const double kInf = std::numeric_limits<double>::infinity();
  auto draw = [kInf](Rng& rng) {
    const double kind = rng.UniformDouble();
    if (kind < 0.2) return kInf;
    if (kind < 0.4) return -kInf;
    return GridScore(rng);
  };
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    const Instance in = RandomInstance(seed, 0.15, draw);
    Fixture f = MakeFixture(in.users1, in.users2, in.links);
    for (double threshold : {-kInf, -0.25, 0.0, kInf}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " threshold "
                                      << threshold);
      ASSERT_EQ(GreedySelect(in.scores, *f.index, in.pins, threshold)
                    .values(),
                ReferenceGreedy(in.scores, f, in.pins, threshold).values());
      ++compared;
    }
  }
  EXPECT_EQ(compared, 8000u);
}

TEST(GreedySelectTest, MatchesSortedDefinitionWithConflictingPins) {
  // Pinned positives are labeled even when they share an endpoint, and
  // every endpoint they touch is closed to free links.
  size_t with_conflict = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    const Instance in = RandomInstance(seed, 0.5, GridScore);
    Fixture f = MakeFixture(in.users1, in.users2, in.links);
    Vector pinned_positives(in.links.size());
    for (size_t l = 0; l < in.links.size(); ++l) {
      if (in.pins[l] == Pin::kPositive) pinned_positives(l) = 1.0;
    }
    if (!f.index->SatisfiesOneToOne(pinned_positives)) ++with_conflict;
    for (double threshold : {-0.25, 0.0, 0.25}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " threshold "
                                      << threshold);
      ASSERT_EQ(GreedySelect(in.scores, *f.index, in.pins, threshold)
                    .values(),
                ReferenceGreedy(in.scores, f, in.pins, threshold).values());
    }
  }
  EXPECT_GT(with_conflict, 1000u);
}

TEST(GreedySelectTest, MatchesSortedDefinitionWithTombstones) {
  // A removed, uncompacted link behaves as a pinned negative: never
  // selected, pinned or not, and it blocks no endpoint.
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    const Instance in = RandomInstance(seed, 0.15, GridScore);
    Fixture f = MakeFixture(in.users1, in.users2, in.links);
    Rng rng(seed + 1000000);
    std::vector<size_t> removed;
    std::vector<Pin> reference_pins = in.pins;
    for (size_t l = 0; l < in.links.size(); ++l) {
      if (rng.Bernoulli(0.3)) {
        removed.push_back(l);
        reference_pins[l] = Pin::kNegative;
      }
    }
    ASSERT_TRUE(f.index->RemoveCandidates(removed).ok());
    for (double threshold : {-0.25, 0.0, 0.25}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " threshold "
                                      << threshold);
      ASSERT_EQ(
          GreedySelect(in.scores, *f.index, in.pins, threshold).values(),
          ReferenceGreedy(in.scores, f, reference_pins, threshold).values());
      ++compared;
    }
  }
  EXPECT_EQ(compared, 9000u);
}

TEST(GreedySelectTest, MatchesSortedDefinitionOnSeparableScores) {
  // Complete bipartite instances scored f(u) + g(v): every user of one
  // side ranks the other side alike, so a user proposing in the wrong
  // order is dropped again and again. Both monotone directions of f and
  // g, three link-id orders (row-major, column-major, shuffled), a tied
  // integer grid and a tie-free variant.
  const double kInf = std::numeric_limits<double>::infinity();
  const std::pair<size_t, size_t> kSizes[] = {{1, 1}, {2, 3}, {5, 5},
                                              {8, 6}, {12, 12}, {143, 143}};
  size_t compared = 0;
  for (const auto& [users1, users2] : kSizes) {
    for (int sign_f : {1, -1}) {
      for (int sign_g : {1, -1}) {
        for (int order = 0; order < 3; ++order) {
          std::vector<std::pair<NodeId, NodeId>> links;
          for (NodeId a = 0; a < users1; ++a) {
            for (NodeId b = 0; b < users2; ++b) links.push_back({a, b});
          }
          if (order == 1) {
            std::stable_sort(links.begin(), links.end(),
                             [](const auto& p, const auto& q) {
                               return p.second < q.second;
                             });
          }
          if (order == 2) {
            Rng rng(users1 * 1000 + users2);
            rng.Shuffle(&links);
          }
          Fixture f = MakeFixture(users1, users2, links);
          const std::vector<Pin> pins(links.size(), Pin::kFree);
          for (bool tied : {true, false}) {
            Vector scores(links.size());
            for (size_t l = 0; l < links.size(); ++l) {
              const auto& [u, v] = links[l];
              // Centred, so threshold 0 admits about half the links.
              const double fu = sign_f * (2.0 * u - (users1 - 1.0));
              const double gv = sign_g * (2.0 * v - (users2 - 1.0));
              scores(l) = tied ? fu + gv : fu * 2.0 * users2 + gv;
            }
            for (double threshold : {-kInf, 0.0}) {
              SCOPED_TRACE(testing::Message()
                           << users1 << "x" << users2 << " signs " << sign_f
                           << "," << sign_g << " order " << order
                           << " tied " << tied << " threshold "
                           << threshold);
              ASSERT_EQ(
                  GreedySelect(scores, *f.index, pins, threshold).values(),
                  ReferenceGreedy(scores, f, pins, threshold).values());
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 6u * 4 * 3 * 2 * 2);
}

}  // namespace
}  // namespace activeiter
