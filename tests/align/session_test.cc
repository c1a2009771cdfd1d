// AlignmentSession invariants: factor-once reuse across external rounds,
// bitwise equivalence with the per-round-refactorisation path the code had
// before the session layer, and pin-state lifecycle.

#include "src/align/session.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/align/active_iter.h"
#include "src/align/iter_aligner.h"
#include "src/align/oracle.h"
#include "src/align/query_strategy.h"
#include "src/common/rng.h"
#include "src/linalg/cholesky.h"

namespace activeiter {
namespace {

/// Planted problem with anchors (i, i), one noisy feature and a bias
/// column — the same shape the ActiveIter tests use.
struct SessionFixture {
  AlignedPair pair;
  CandidateLinkSet candidates;
  std::unique_ptr<IncidenceIndex> index;
  Matrix x;
  Vector truth;
  std::vector<size_t> labeled;

  explicit SessionFixture(size_t users, double noise, uint64_t seed)
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
};

void ExpectBitwiseEqual(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a(i), b(i)) << "index " << i;
}

TEST(AlignmentSessionTest, PrepareSeedsPinsFromProblem) {
  SessionFixture f(8, 0.05, 1);
  AlignmentProblem problem = f.Problem();
  auto session = problem.Prepare(1.0);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value().size(), f.candidates.size());
  EXPECT_EQ(session.value().c(), 1.0);
  EXPECT_EQ(session.value().pinned(), problem.pinned);
}

TEST(AlignmentSessionTest, PrepareRejectsInvalidProblem) {
  AlignmentProblem bad;
  EXPECT_FALSE(bad.Prepare(1.0).ok());
  SessionFixture f(5, 0.05, 2);
  AlignmentProblem problem = f.Problem();
  EXPECT_FALSE(problem.Prepare(0.0).ok());
  EXPECT_FALSE(problem.Prepare(-1.0).ok());
}

TEST(AlignmentSessionTest, AlignerRejectsMismatchedC) {
  SessionFixture f(6, 0.05, 3);
  auto session = f.Problem().Prepare(2.0);
  ASSERT_TRUE(session.ok());
  IterAligner aligner;  // options.c = 1.0
  EXPECT_FALSE(aligner.Align(session.value()).ok());
}

TEST(AlignmentSessionTest, SessionAlignBitwiseEqualsProblemAlign) {
  SessionFixture f(12, 0.06, 4);
  AlignmentProblem problem = f.Problem();
  IterAligner aligner;
  auto via_problem = aligner.Align(problem);
  ASSERT_TRUE(via_problem.ok());

  auto session = problem.Prepare(aligner.options().c);
  ASSERT_TRUE(session.ok());
  auto via_session = aligner.Align(session.value());
  ASSERT_TRUE(via_session.ok());

  ExpectBitwiseEqual(via_problem.value().y, via_session.value().y);
  ExpectBitwiseEqual(via_problem.value().scores, via_session.value().scores);
  ExpectBitwiseEqual(via_problem.value().w, via_session.value().w);
  EXPECT_EQ(via_problem.value().trace.delta_y,
            via_session.value().trace.delta_y);
}

/// The pre-refactor ActiveIter path: one RidgeSolver::Create per external
/// round, i.e. the Align(problem) overload called with the current pins
/// each round. Must be bitwise-reproduced by the session path.
ActiveIterResult ReferenceActiveIter(const ActiveIterOptions& options,
                                     AlignmentProblem work, Oracle* oracle) {
  IterAligner aligner(options.base);
  ConflictQueryStrategy strategy(options.closeness_threshold,
                                 options.dominance_margin,
                                 options.fill_with_near_misses);
  Rng rng(options.seed);
  ActiveIterResult result;
  size_t budget = std::min(options.budget, oracle->remaining_budget());
  for (;;) {
    auto aligned = aligner.Align(work);
    EXPECT_TRUE(aligned.ok());
    result.round_traces.push_back(aligned.value().trace);
    ++result.rounds;
    result.y = aligned.value().y;
    result.scores = aligned.value().scores;
    result.w = aligned.value().w;

    size_t remaining = budget - result.queries.size();
    if (remaining == 0) break;
    QueryContext ctx;
    ctx.scores = &result.scores;
    ctx.y = &result.y;
    ctx.index = work.index;
    ctx.pinned = &work.pinned;
    std::vector<size_t> batch = strategy.SelectQueries(
        ctx, std::min(options.batch_size, remaining), &rng);
    if (batch.empty()) break;
    for (size_t link_id : batch) {
      double label = oracle->QueryLink(work.index->candidates(), link_id);
      work.pinned[link_id] = label > 0.5 ? Pin::kPositive : Pin::kNegative;
      result.queries.push_back({link_id, label});
    }
  }
  return result;
}

TEST(AlignmentSessionTest, ActiveIterBitwiseEqualsPerRoundRefactorPath) {
  SessionFixture f(15, 0.08, 5);
  ActiveIterOptions options;
  options.budget = 20;
  options.batch_size = 5;
  options.seed = 99;

  Oracle ref_oracle(f.pair, options.budget);
  ActiveIterResult reference =
      ReferenceActiveIter(options, f.Problem(), &ref_oracle);

  ActiveIterModel model(options);
  Oracle oracle(f.pair, options.budget);
  auto result = model.Run(f.Problem(), &oracle);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result.value().rounds, reference.rounds);
  ASSERT_EQ(result.value().queries.size(), reference.queries.size());
  for (size_t q = 0; q < reference.queries.size(); ++q) {
    EXPECT_EQ(result.value().queries[q].link_id,
              reference.queries[q].link_id);
    EXPECT_EQ(result.value().queries[q].label, reference.queries[q].label);
  }
  ExpectBitwiseEqual(result.value().y, reference.y);
  ExpectBitwiseEqual(result.value().scores, reference.scores);
  ExpectBitwiseEqual(result.value().w, reference.w);
}

TEST(AlignmentSessionTest, FullActiveIterRunFactorsExactlyOnce) {
  // Budget 100, batch 5: 20 query rounds + the final alternation = 21
  // external rounds. The session path must factor the ridge system once.
  SessionFixture f(20, 0.1, 6);
  ActiveIterOptions options;
  options.budget = 100;
  options.batch_size = 5;
  options.strategy = QueryStrategyKind::kRandom;  // batches never come short
  options.seed = 7;
  ActiveIterModel model(options);

  auto session = f.Problem().Prepare(options.base.c);
  ASSERT_TRUE(session.ok());

  Oracle oracle(f.pair, options.budget);
  const uint64_t before = CholeskyFactor::TotalFactorCount();
  auto result = model.Run(session.value(), &oracle);
  const uint64_t after = CholeskyFactor::TotalFactorCount();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rounds, 21u);
  EXPECT_EQ(after - before, 0u) << "prepared session must not refactor";

  // The wrapper (prepare + run) pays exactly one factorisation in total.
  Oracle oracle2(f.pair, options.budget);
  const uint64_t wrapped_before = CholeskyFactor::TotalFactorCount();
  auto wrapped = model.Run(f.Problem(), &oracle2);
  const uint64_t wrapped_after = CholeskyFactor::TotalFactorCount();
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped.value().rounds, 21u);
  EXPECT_EQ(wrapped_after - wrapped_before, 1u);
}

TEST(AlignmentSessionTest, ResetPinsMakesRunsRepeatable) {
  SessionFixture f(10, 0.05, 8);
  AlignmentProblem problem = f.Problem();
  auto session = problem.Prepare(1.0);
  ASSERT_TRUE(session.ok());
  IterAligner aligner;

  auto first = aligner.Align(session.value());
  ASSERT_TRUE(first.ok());
  // Dirty the pin state, then reset: the rerun must reproduce the first.
  session.value().SetPin(0, Pin::kNegative);
  session.value().ResetPins(problem.pinned);
  const uint64_t before = CholeskyFactor::TotalFactorCount();
  auto second = aligner.Align(session.value());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(CholeskyFactor::TotalFactorCount(), before);
  ExpectBitwiseEqual(first.value().y, second.value().y);
  ExpectBitwiseEqual(first.value().w, second.value().w);
}

TEST(AlignmentSessionTest, SessionsWithDifferentCShareOnePrepared) {
  SessionFixture f(10, 0.05, 9);
  auto first = AlignmentSession::Create(f.x, *f.index, 1.0);
  ASSERT_TRUE(first.ok());
  const uint64_t factors_before = CholeskyFactor::TotalFactorCount();
  auto second = AlignmentSession::CreateFromPrepared(
      first.value().shared_prepared(), *f.index, 5.0);
  ASSERT_TRUE(second.ok());
  // Deriving a sibling costs exactly one factorisation and zero Gram
  // rebuilds: both sessions point at the same prepared state.
  EXPECT_EQ(CholeskyFactor::TotalFactorCount(), factors_before + 1);
  EXPECT_EQ(&first.value().prepared(), &second.value().prepared());
  EXPECT_EQ(second.value().c(), 5.0);
  // And it solves like a from-scratch session for that c.
  auto fresh = AlignmentSession::Create(f.x, *f.index, 5.0);
  ASSERT_TRUE(fresh.ok());
  Vector y(f.x.rows());
  for (size_t i = 0; i < y.size(); ++i) y(i) = f.truth(i);
  ExpectBitwiseEqual(second.value().solver().Solve(y),
                     fresh.value().solver().Solve(y));
}

}  // namespace
}  // namespace activeiter
