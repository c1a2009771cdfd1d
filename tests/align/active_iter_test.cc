#include "src/align/active_iter.h"

#include <cstdint>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace activeiter {
namespace {

/// A planted problem where the single feature is noisy enough that some
/// links are mis-scored, giving the active loop something to fix. Anchors
/// are (i, i).
struct ActiveFixture {
  AlignedPair pair;
  CandidateLinkSet candidates;
  std::unique_ptr<IncidenceIndex> index;
  Matrix x;
  Vector truth;
  std::vector<size_t> labeled;

  explicit ActiveFixture(size_t users, double noise, uint64_t seed)
      : pair(MakeNets(users)) {
    for (NodeId i = 0; i < users; ++i) {
      EXPECT_TRUE(pair.AddAnchor(i, i).ok());
    }
    Rng rng(seed);
    std::vector<std::pair<NodeId, NodeId>> links;
    for (NodeId i = 0; i < users; ++i) {
      for (NodeId j = 0; j < users; ++j) {
        if (i == j || rng.Bernoulli(0.4)) links.emplace_back(i, j);
      }
    }
    truth = Vector(links.size());
    x = Matrix(links.size(), 2);
    for (size_t id = 0; id < links.size(); ++id) {
      candidates.Add(links[id].first, links[id].second);
      bool is_true = links[id].first == links[id].second;
      truth(id) = is_true ? 1.0 : 0.0;
      x(id, 0) = (is_true ? 0.7 : 0.25) + rng.Normal(0.0, noise);
      x(id, 1) = 1.0;
    }
    // Label the first few true links.
    for (size_t id = 0; id < links.size() && labeled.size() < 3; ++id) {
      if (truth(id) > 0.5) labeled.push_back(id);
    }
    index = std::make_unique<IncidenceIndex>(pair, candidates);
  }

  static AlignedPair MakeNets(size_t users) {
    HeteroNetwork a(NetworkSchema::SocialNetwork(), "n1");
    a.AddNodes(NodeType::kUser, users);
    HeteroNetwork b(NetworkSchema::SocialNetwork(), "n2");
    b.AddNodes(NodeType::kUser, users);
    return AlignedPair(std::move(a), std::move(b));
  }

  AlignmentProblem Problem() const {
    AlignmentProblem p;
    p.x = &x;
    p.index = index.get();
    p.pinned.assign(candidates.size(), Pin::kFree);
    for (size_t id : labeled) p.pinned[id] = Pin::kPositive;
    return p;
  }

  double Accuracy(const Vector& y) const {
    size_t correct = 0;
    for (size_t id = 0; id < candidates.size(); ++id) {
      if (y(id) == truth(id)) ++correct;
    }
    return static_cast<double>(correct) / candidates.size();
  }
};

TEST(ActiveIterTest, RequiresOracle) {
  ActiveFixture f(10, 0.05, 1);
  ActiveIterModel model;
  EXPECT_FALSE(model.Run(f.Problem(), nullptr).ok());
}

TEST(ActiveIterTest, RejectsZeroMaxIterations) {
  // The internal alternation's rejection reaches the caller as a status;
  // nothing downstream runs on the empty scores it would have returned.
  ActiveFixture f(10, 0.05, 1);
  ActiveIterOptions options;
  options.base.max_iterations = 0;
  ActiveIterModel model(options);
  Oracle oracle(f.pair, options.budget);
  auto result = model.Run(f.Problem(), &oracle);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(oracle.queries_used(), 0u);
}

TEST(ActiveIterTest, RespectsBudget) {
  ActiveFixture f(20, 0.15, 2);
  ActiveIterOptions options;
  options.budget = 10;
  options.batch_size = 3;
  ActiveIterModel model(options);
  Oracle oracle(f.pair, options.budget);
  auto result = model.Run(f.Problem(), &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().queries.size(), 10u);
  EXPECT_EQ(result.value().queries.size(), oracle.queries_used());
}

TEST(ActiveIterTest, QueriesAreDistinctAndUnpinned) {
  ActiveFixture f(20, 0.15, 3);
  ActiveIterOptions options;
  options.budget = 12;
  ActiveIterModel model(options);
  Oracle oracle(f.pair, options.budget);
  auto result = model.Run(f.Problem(), &oracle);
  ASSERT_TRUE(result.ok());
  std::set<size_t> seen;
  for (const auto& q : result.value().queries) {
    EXPECT_TRUE(seen.insert(q.link_id).second) << "duplicate query";
    // Initially-labeled links must never be queried.
    for (size_t l : f.labeled) EXPECT_NE(q.link_id, l);
  }
}

TEST(ActiveIterTest, QueryAnswersMatchGroundTruth) {
  ActiveFixture f(15, 0.2, 4);
  ActiveIterOptions options;
  options.budget = 8;
  ActiveIterModel model(options);
  Oracle oracle(f.pair, options.budget);
  auto result = model.Run(f.Problem(), &oracle);
  ASSERT_TRUE(result.ok());
  for (const auto& q : result.value().queries) {
    EXPECT_EQ(q.label, f.truth(q.link_id));
  }
}

TEST(ActiveIterTest, FinalLabelsHonourQueriedAnswers) {
  ActiveFixture f(15, 0.2, 5);
  ActiveIterOptions options;
  options.budget = 8;
  ActiveIterModel model(options);
  Oracle oracle(f.pair, options.budget);
  auto result = model.Run(f.Problem(), &oracle);
  ASSERT_TRUE(result.ok());
  for (const auto& q : result.value().queries) {
    EXPECT_EQ(result.value().y(q.link_id), q.label);
  }
}

TEST(ActiveIterTest, OutputSatisfiesOneToOne) {
  ActiveFixture f(12, 0.25, 6);
  ActiveIterModel model;
  Oracle oracle(f.pair, 50);
  auto result = model.Run(f.Problem(), &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(f.index->SatisfiesOneToOne(result.value().y));
}

TEST(ActiveIterTest, ZeroBudgetEqualsIterAligner) {
  ActiveFixture f(12, 0.1, 7);
  ActiveIterOptions options;
  options.budget = 0;
  ActiveIterModel model(options);
  Oracle oracle(f.pair, 0);
  auto active = model.Run(f.Problem(), &oracle);
  ASSERT_TRUE(active.ok());
  EXPECT_TRUE(active.value().queries.empty());
  IterAligner plain;
  auto iter = plain.Align(f.Problem());
  ASSERT_TRUE(iter.ok());
  EXPECT_EQ((active.value().y - iter.value().y).Norm1(), 0.0);
}

TEST(ActiveIterTest, ActiveBeatsOrMatchesNoQueriesOnNoisyData) {
  // Averaged over several seeds, conflict-driven queries must not hurt and
  // should typically help on noisy instances.
  double active_total = 0.0, plain_total = 0.0;
  for (uint64_t seed = 10; seed < 16; ++seed) {
    ActiveFixture f(25, 0.22, seed);
    ActiveIterOptions options;
    options.budget = 20;
    options.batch_size = 5;
    ActiveIterModel model(options);
    Oracle oracle(f.pair, options.budget);
    auto active = model.Run(f.Problem(), &oracle);
    ASSERT_TRUE(active.ok());
    IterAligner plain;
    auto iter = plain.Align(f.Problem());
    ASSERT_TRUE(iter.ok());
    active_total += f.Accuracy(active.value().y);
    plain_total += f.Accuracy(iter.value().y);
  }
  EXPECT_GE(active_total, plain_total - 1e-9);
}

TEST(ActiveIterTest, RandomStrategyRuns) {
  ActiveFixture f(15, 0.2, 8);
  ActiveIterOptions options;
  options.budget = 10;
  options.strategy = QueryStrategyKind::kRandom;
  ActiveIterModel model(options);
  Oracle oracle(f.pair, options.budget);
  auto result = model.Run(f.Problem(), &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().queries.size(), 10u);
}

TEST(ActiveIterTest, UncertaintyStrategyRuns) {
  ActiveFixture f(15, 0.2, 9);
  ActiveIterOptions options;
  options.budget = 6;
  options.strategy = QueryStrategyKind::kUncertainty;
  ActiveIterModel model(options);
  Oracle oracle(f.pair, options.budget);
  auto result = model.Run(f.Problem(), &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().queries.size(), 6u);
}

TEST(ActiveIterTest, RoundTracesRecorded) {
  ActiveFixture f(15, 0.2, 10);
  ActiveIterOptions options;
  options.budget = 10;
  options.batch_size = 5;
  ActiveIterModel model(options);
  Oracle oracle(f.pair, options.budget);
  auto result = model.Run(f.Problem(), &oracle);
  ASSERT_TRUE(result.ok());
  // budget/batch = 2 query rounds plus the final alternation.
  EXPECT_GE(result.value().rounds, 1u);
  EXPECT_EQ(result.value().round_traces.size(), result.value().rounds);
}

TEST(ActiveIterTest, DeterministicForSameSeed) {
  ActiveFixture f(15, 0.2, 11);
  ActiveIterOptions options;
  options.budget = 10;
  options.strategy = QueryStrategyKind::kRandom;
  options.seed = 5;
  ActiveIterModel model(options);
  Oracle o1(f.pair, options.budget), o2(f.pair, options.budget);
  auto r1 = model.Run(f.Problem(), &o1);
  auto r2 = model.Run(f.Problem(), &o2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((r1.value().y - r2.value().y).Norm1(), 0.0);
  EXPECT_EQ(r1.value().QueriedLinkIds(), r2.value().QueriedLinkIds());
}

/// FNV-1a over a run's discrete outputs: the final labels, the queried
/// link ids in query order, and the inner-iteration count of every round.
uint64_t RunFingerprint(const ActiveIterResult& result) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(result.y.size());
  for (size_t i = 0; i < result.y.size(); ++i) {
    mix(static_cast<uint64_t>(result.y(i)));
  }
  mix(result.queries.size());
  for (const auto& q : result.queries) mix(q.link_id);
  mix(result.round_traces.size());
  for (const auto& trace : result.round_traces) mix(trace.iterations());
  return h;
}

TEST(ActiveIterTest, GoldenRunFingerprints) {
  // Pins the paper's run end to end on one fixed instance, noisy enough
  // that some queries come back positive and some rounds need three inner
  // iterations. Any change to label inference, query selection or the
  // alternation that moves a label, a query or an iteration count changes
  // these constants.
  struct Golden {
    QueryStrategyKind strategy;
    uint64_t fingerprint;
  };
  const Golden kGolden[] = {
      {QueryStrategyKind::kConflict, 5845995567218489248ULL},
      {QueryStrategyKind::kUncertainty, 3938884513348528042ULL},
  };
  ActiveFixture f(20, 0.3, 12);
  for (const Golden& golden : kGolden) {
    ActiveIterOptions options;
    options.budget = 20;
    options.batch_size = 5;
    options.strategy = golden.strategy;
    ActiveIterModel model(options);
    Oracle oracle(f.pair, options.budget);
    auto result = model.Run(f.Problem(), &oracle);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().queries.size(), 20u);
    EXPECT_EQ(RunFingerprint(result.value()), golden.fingerprint)
        << "strategy " << static_cast<int>(golden.strategy);
  }
}

}  // namespace
}  // namespace activeiter
