#include "src/align/query_strategy.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include <gtest/gtest.h>

namespace activeiter {
namespace {

struct Fixture {
  AlignedPair pair;
  CandidateLinkSet candidates;
  std::unique_ptr<IncidenceIndex> index;
  Vector scores;
  Vector y;
  std::vector<Pin> pinned;

  QueryContext Context() const {
    QueryContext ctx;
    ctx.scores = &scores;
    ctx.y = &y;
    ctx.index = index.get();
    ctx.pinned = &pinned;
    return ctx;
  }
};

/// Conflict scenario from the paper's §III-D step (2):
///   link 0 = (0,0) inferred POSITIVE with score 0.62  (l')
///   link 1 = (0,1) inferred NEGATIVE with score 0.60  (l, barely lost)
///   link 2 = (1,1) inferred POSITIVE with score 0.20  (l'', dominated)
///   link 3 = (2,2) inferred NEGATIVE with score 0.10  (uninteresting)
Fixture ConflictFixture() {
  HeteroNetwork a(NetworkSchema::SocialNetwork(), "n1");
  a.AddNodes(NodeType::kUser, 3);
  HeteroNetwork b(NetworkSchema::SocialNetwork(), "n2");
  b.AddNodes(NodeType::kUser, 3);
  Fixture f{AlignedPair(std::move(a), std::move(b)), {}, nullptr,
            {}, {}, {}};
  f.candidates.Add(0, 0);
  f.candidates.Add(0, 1);
  f.candidates.Add(1, 1);
  f.candidates.Add(2, 2);
  f.index = std::make_unique<IncidenceIndex>(f.pair, f.candidates);
  f.scores = Vector{0.62, 0.60, 0.20, 0.10};
  f.y = Vector{1.0, 0.0, 1.0, 0.0};
  f.pinned.assign(4, Pin::kFree);
  return f;
}

TEST(ConflictStrategyTest, FindsBarelyLostFalseNegative) {
  Fixture f = ConflictFixture();
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  auto picks = strategy.SelectQueries(f.Context(), 5, &rng);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], 1u);  // the barely-lost link (0,1)
}

TEST(ConflictStrategyTest, ClosenessThresholdGates) {
  Fixture f = ConflictFixture();
  f.scores(1) = 0.50;  // now far from the winner 0.62
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  EXPECT_TRUE(strategy.SelectQueries(f.Context(), 5, &rng).empty());
}

TEST(ConflictStrategyTest, DominanceMarginGates) {
  Fixture f = ConflictFixture();
  f.scores(2) = 0.58;  // l'' no longer clearly dominated
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  EXPECT_TRUE(strategy.SelectQueries(f.Context(), 5, &rng).empty());
}

TEST(ConflictStrategyTest, RequiresPositiveDominatedScore) {
  Fixture f = ConflictFixture();
  f.scores(2) = -0.1;  // ŷ_l'' must be > 0 per the paper
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  EXPECT_TRUE(strategy.SelectQueries(f.Context(), 5, &rng).empty());
}

TEST(ConflictStrategyTest, SkipsPinnedLinks) {
  Fixture f = ConflictFixture();
  f.pinned[1] = Pin::kNegative;  // already queried
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  EXPECT_TRUE(strategy.SelectQueries(f.Context(), 5, &rng).empty());
}

TEST(ConflictStrategyTest, RanksByDominanceGap) {
  // Two candidates; the one with the larger ŷ_l − ŷ_l'' gap ranks first.
  HeteroNetwork a(NetworkSchema::SocialNetwork(), "n1");
  a.AddNodes(NodeType::kUser, 4);
  HeteroNetwork b(NetworkSchema::SocialNetwork(), "n2");
  b.AddNodes(NodeType::kUser, 4);
  Fixture f{AlignedPair(std::move(a), std::move(b)), {}, nullptr,
            {}, {}, {}};
  // Cluster A: winner (0,0)=0.62+, loser (0,1)=0.60-, dominated (1,1)=0.3+.
  f.candidates.Add(0, 0);
  f.candidates.Add(0, 1);
  f.candidates.Add(1, 1);
  // Cluster B: winner (2,2)=0.82+, loser (2,3)=0.80-, dominated (3,3)=0.1+.
  f.candidates.Add(2, 2);
  f.candidates.Add(2, 3);
  f.candidates.Add(3, 3);
  f.index = std::make_unique<IncidenceIndex>(f.pair, f.candidates);
  f.scores = Vector{0.62, 0.60, 0.30, 0.82, 0.80, 0.10};
  f.y = Vector{1.0, 0.0, 1.0, 1.0, 0.0, 1.0};
  f.pinned.assign(6, Pin::kFree);

  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  auto picks = strategy.SelectQueries(f.Context(), 2, &rng);
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0], 4u);  // gap 0.80-0.10 = 0.70 beats 0.60-0.30 = 0.30
  EXPECT_EQ(picks[1], 1u);
}

TEST(ConflictStrategyTest, BatchSizeHonoured) {
  Fixture f = ConflictFixture();
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  EXPECT_LE(strategy.SelectQueries(f.Context(), 0, &rng).size(), 0u);
}

TEST(ConflictStrategyTest, NearMissFallbackTopsUpShortBatches) {
  Fixture f = ConflictFixture();
  f.scores(1) = 0.50;  // strict candidate set empty (closeness gate)
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/true);
  Rng rng(1);
  auto picks = strategy.SelectQueries(f.Context(), 2, &rng);
  // Link 1 lost to (0,0) by 0.12 -> a near miss; link 3 has no conflicting
  // positive and is never queried. Exactly one top-up candidate exists.
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], 1u);
}

TEST(ConflictStrategyTest, StrictCandidatesRankAheadOfNearMisses) {
  Fixture f = ConflictFixture();
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/true);
  Rng rng(1);
  auto picks = strategy.SelectQueries(f.Context(), 3, &rng);
  ASSERT_GE(picks.size(), 1u);
  EXPECT_EQ(picks[0], 1u);  // the strict candidate stays first
}

TEST(ConflictStrategyTest, NearMissRequiresConflictingPositive) {
  // A lone negative link with no conflicting positive is never queried.
  Fixture f = ConflictFixture();
  f.y = Vector{0.0, 0.0, 0.0, 0.0};  // nothing inferred positive
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/true);
  Rng rng(1);
  EXPECT_TRUE(strategy.SelectQueries(f.Context(), 4, &rng).empty());
}

/// The conflict strategy written straight from its definition, in
/// O(|H|²): a link conflicts with every other indexed link that shares an
/// endpoint. U− is free with y ≤ 0.5, U+ is free with y ≥ 0.5. Tombstoned
/// links keep their ids until compaction, so they still rank as U− links,
/// but they are nobody's conflicting positive. Ties rank by link id.
std::vector<size_t> ReferenceConflictQueries(
    const Fixture& f, const std::vector<bool>& tombstoned, double closeness,
    double dominance, bool fill_with_near_misses, size_t k) {
  const auto& links = f.candidates.links();
  const size_t n = links.size();
  std::vector<std::pair<double, size_t>> strict;  // (−gap, link)
  std::vector<std::pair<double, size_t>> near;    // (distance, link)
  for (size_t l = 0; l < n; ++l) {
    if (f.pinned[l] != Pin::kFree || f.y(l) > 0.5) continue;
    bool close = false;
    bool dominates = false;
    double gap = 0.0;
    bool any_positive = false;
    double distance = 0.0;
    for (size_t o = 0; o < n; ++o) {
      const bool shares_endpoint = links[o].first == links[l].first ||
                                   links[o].second == links[l].second;
      if (o == l || tombstoned[o] || !shares_endpoint) continue;
      if (f.pinned[o] != Pin::kFree || f.y(o) < 0.5) continue;
      const double d = std::abs(f.scores(o) - f.scores(l));
      distance = any_positive ? std::min(distance, d) : d;
      any_positive = true;
      close = close || d <= closeness;
      const double margin = f.scores(l) - f.scores(o);
      if (f.scores(o) > 0.0 && margin >= dominance) {
        gap = dominates ? std::max(gap, margin) : margin;
        dominates = true;
      }
    }
    if (close && dominates) {
      strict.push_back({-gap, l});
    } else if (any_positive) {
      near.push_back({distance, l});
    }
  }
  std::sort(strict.begin(), strict.end());
  std::sort(near.begin(), near.end());
  std::vector<size_t> out;
  for (const auto& [key, link] : strict) {
    if (out.size() < k) out.push_back(link);
  }
  if (fill_with_near_misses) {
    for (const auto& [key, link] : near) {
      if (out.size() < k) out.push_back(link);
    }
  }
  return out;
}

/// A random instance for the brute-force tests: 1–6 users per side and up
/// to 40 candidate links, so endpoints are shared and pairs repeat. Scores,
/// labels and pins are left for the caller.
Fixture RandomFixture(Rng& rng) {
  const size_t users1 = 1 + rng.UniformInt(6);
  const size_t users2 = 1 + rng.UniformInt(6);
  HeteroNetwork a(NetworkSchema::SocialNetwork(), "n1");
  a.AddNodes(NodeType::kUser, users1);
  HeteroNetwork b(NetworkSchema::SocialNetwork(), "n2");
  b.AddNodes(NodeType::kUser, users2);
  Fixture f{AlignedPair(std::move(a), std::move(b)), {}, nullptr,
            {}, {}, {}};
  const size_t n = rng.UniformInt(41);
  for (size_t l = 0; l < n; ++l) {
    f.candidates.Add(static_cast<NodeId>(rng.UniformInt(users1)),
                     static_cast<NodeId>(rng.UniformInt(users2)));
  }
  f.index = std::make_unique<IncidenceIndex>(f.pair, f.candidates);
  return f;
}

TEST(ConflictStrategyTest, MatchesBruteForceDefinition) {
  // Small random instances: few users, so every endpoint carries several
  // U+ links and pairs repeat; labels are not one-to-one and include the
  // y = 0.5 boundary; both pin kinds and tombstones occur; scores sit on a
  // dyadic grid, so ties and exact closeness/dominance boundaries occur.
  const double kStep = 1.0 / 16.0;
  const double kThresholds[][2] = {
      {kStep, kStep}, {2 * kStep, kStep}, {0.05, 0.05}, {kStep, 0.0}};
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    Fixture f = RandomFixture(rng);
    const size_t n = f.candidates.size();
    std::vector<bool> tombstoned(n, false);
    std::vector<size_t> removed;
    for (size_t l = 0; l < n; ++l) {
      if (rng.Bernoulli(0.15)) {
        removed.push_back(l);
        tombstoned[l] = true;
      }
    }
    ASSERT_TRUE(f.index->RemoveCandidates(removed).ok());
    f.scores = Vector(n);
    f.y = Vector(n);
    f.pinned.assign(n, Pin::kFree);
    for (size_t l = 0; l < n; ++l) {
      f.scores(l) = static_cast<double>(rng.UniformRange(-4, 16)) * kStep;
      const double draw = rng.UniformDouble();
      f.y(l) = draw < 0.45 ? 1.0 : draw < 0.55 ? 0.5 : 0.0;
      const double pin = rng.UniformDouble();
      if (pin < 0.15) f.pinned[l] = Pin::kPositive;
      if (pin > 0.85) f.pinned[l] = Pin::kNegative;
    }
    const auto& [closeness, dominance] = kThresholds[seed % 4];
    for (bool fill : {false, true}) {
      for (size_t k : {size_t{1}, size_t{5}, n}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " fill "
                                        << fill << " k " << k);
        ConflictQueryStrategy strategy(closeness, dominance, fill);
        Rng unused(0);
        ASSERT_EQ(strategy.SelectQueries(f.Context(), k, &unused),
                  ReferenceConflictQueries(f, tombstoned, closeness,
                                           dominance, fill, k));
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 18000u);
}

TEST(RandomStrategyTest, PicksOnlyUnpinned) {
  Fixture f = ConflictFixture();
  f.pinned[0] = Pin::kPositive;
  f.pinned[2] = Pin::kNegative;
  RandomQueryStrategy strategy;
  Rng rng(2);
  auto picks = strategy.SelectQueries(f.Context(), 10, &rng);
  std::set<size_t> got(picks.begin(), picks.end());
  EXPECT_EQ(got, (std::set<size_t>{1, 3}));
}

TEST(RandomStrategyTest, RespectsK) {
  Fixture f = ConflictFixture();
  RandomQueryStrategy strategy;
  Rng rng(3);
  EXPECT_EQ(strategy.SelectQueries(f.Context(), 2, &rng).size(), 2u);
}

TEST(RandomStrategyTest, DeterministicGivenRng) {
  Fixture f = ConflictFixture();
  RandomQueryStrategy strategy;
  Rng rng1(7), rng2(7);
  EXPECT_EQ(strategy.SelectQueries(f.Context(), 2, &rng1),
            strategy.SelectQueries(f.Context(), 2, &rng2));
}

TEST(UncertaintyStrategyTest, PicksNearThreshold) {
  Fixture f = ConflictFixture();
  UncertaintyQueryStrategy strategy(0.5);
  Rng rng(4);
  auto picks = strategy.SelectQueries(f.Context(), 1, &rng);
  ASSERT_EQ(picks.size(), 1u);
  // Scores: 0.62, 0.60, 0.20, 0.10 -> closest to 0.5 is link 1 (0.60).
  EXPECT_EQ(picks[0], 1u);
}

TEST(UncertaintyStrategyTest, MatchesBruteForceDefinition) {
  // Uncertainty sampling from its definition: the free links sorted by
  // |ŷ − t|, stably over link ids, then the first k. Scores sit on a
  // dyadic grid, so distances tie on both sides of the threshold.
  const double kStep = 1.0 / 16.0;
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    Fixture f = RandomFixture(rng);
    const size_t n = f.candidates.size();
    f.scores = Vector(n);
    f.y = Vector(n);
    f.pinned.assign(n, Pin::kFree);
    for (size_t l = 0; l < n; ++l) {
      f.scores(l) = static_cast<double>(rng.UniformRange(-4, 16)) * kStep;
      const double pin = rng.UniformDouble();
      if (pin < 0.15) f.pinned[l] = Pin::kPositive;
      if (pin > 0.85) f.pinned[l] = Pin::kNegative;
    }
    const double threshold = seed % 2 == 0 ? 0.0 : 0.5;
    std::vector<size_t> free_links;
    for (size_t l = 0; l < n; ++l) {
      if (f.pinned[l] == Pin::kFree) free_links.push_back(l);
    }
    std::stable_sort(free_links.begin(), free_links.end(),
                     [&](size_t l1, size_t l2) {
                       return std::abs(f.scores(l1) - threshold) <
                              std::abs(f.scores(l2) - threshold);
                     });
    for (size_t k : {size_t{1}, size_t{5}, n}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " k " << k);
      std::vector<size_t> expected(
          free_links.begin(),
          free_links.begin() + std::min(k, free_links.size()));
      UncertaintyQueryStrategy strategy(threshold);
      Rng unused(0);
      ASSERT_EQ(strategy.SelectQueries(f.Context(), k, &unused), expected);
      ++compared;
    }
  }
  EXPECT_EQ(compared, 9000u);
}

TEST(StrategyNamesAreStable, Names) {
  EXPECT_STREQ(ConflictQueryStrategy().name(), "conflict");
  EXPECT_STREQ(RandomQueryStrategy().name(), "random");
  EXPECT_STREQ(UncertaintyQueryStrategy().name(), "uncertainty");
}

}  // namespace
}  // namespace activeiter
