#include "src/align/iter_aligner.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace activeiter {
namespace {

/// Synthetic alignment problem with a single informative feature: true
/// links score high, false links low, plus noise. Users are 1:1 so the
/// constraint is satisfiable.
struct SyntheticProblem {
  AlignedPair pair;
  CandidateLinkSet candidates;
  std::unique_ptr<IncidenceIndex> index;
  Matrix x;
  Vector truth;

  SyntheticProblem(size_t users, double noise, uint64_t seed)
      : pair(MakeNets(users)) {
    Rng rng(seed);
    std::vector<std::pair<NodeId, NodeId>> links;
    // True links (i, i) plus distractors (i, j).
    for (NodeId i = 0; i < users; ++i) {
      for (NodeId j = 0; j < users; ++j) {
        if (i == j || rng.Bernoulli(0.3)) links.emplace_back(i, j);
      }
    }
    truth = Vector(links.size());
    x = Matrix(links.size(), 2);
    for (size_t id = 0; id < links.size(); ++id) {
      candidates.Add(links[id].first, links[id].second);
      bool is_true = links[id].first == links[id].second;
      truth(id) = is_true ? 1.0 : 0.0;
      x(id, 0) = (is_true ? 0.8 : 0.15) + rng.Normal(0.0, noise);
      x(id, 1) = 1.0;  // bias
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

  AlignmentProblem Problem(const std::vector<size_t>& labeled_pos) const {
    AlignmentProblem p;
    p.x = &x;
    p.index = index.get();
    p.pinned.assign(candidates.size(), Pin::kFree);
    for (size_t id : labeled_pos) p.pinned[id] = Pin::kPositive;
    return p;
  }

  std::vector<size_t> TrueLinkIds() const {
    std::vector<size_t> out;
    for (size_t id = 0; id < candidates.size(); ++id) {
      if (truth(id) > 0.5) out.push_back(id);
    }
    return out;
  }
};

TEST(IterAlignerTest, ValidatesProblem) {
  IterAligner aligner;
  AlignmentProblem bad;
  EXPECT_FALSE(aligner.Align(bad).ok());
}

TEST(IterAlignerTest, RejectsInvalidOptions) {
  SyntheticProblem sp(5, 0.01, 1);
  IterAlignerOptions non_positive_c;
  non_positive_c.c = 0.0;
  IterAlignerOptions zero_iterations;  // would leave no scores and no model
  zero_iterations.max_iterations = 0;
  auto session = sp.Problem({}).Prepare(1.0);
  ASSERT_TRUE(session.ok());
  for (const IterAlignerOptions& options : {non_positive_c, zero_iterations}) {
    IterAligner aligner(options);
    EXPECT_EQ(aligner.Align(sp.Problem({})).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(aligner.Align(session.value()).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(IterAlignerTest, ConvergesAndReportsTrace) {
  SyntheticProblem sp(10, 0.02, 2);
  auto true_ids = sp.TrueLinkIds();
  IterAligner aligner;
  auto result = aligner.Align(sp.Problem({true_ids[0], true_ids[1]}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().trace.converged);
  EXPECT_GE(result.value().trace.iterations(), 1u);
  // Paper: convergence within ~5 external iterations.
  EXPECT_LE(result.value().trace.iterations(), 10u);
  EXPECT_EQ(result.value().trace.delta_y.back(), 0.0);
}

TEST(IterAlignerTest, RecoversPlantedAlignment) {
  SyntheticProblem sp(20, 0.03, 3);
  auto true_ids = sp.TrueLinkIds();
  std::vector<size_t> labeled(true_ids.begin(), true_ids.begin() + 4);
  IterAligner aligner;
  auto result = aligner.Align(sp.Problem(labeled));
  ASSERT_TRUE(result.ok());
  size_t correct = 0;
  for (size_t id = 0; id < sp.candidates.size(); ++id) {
    if (result.value().y(id) == sp.truth(id)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / sp.candidates.size(), 0.9);
}

TEST(IterAlignerTest, OutputSatisfiesOneToOne) {
  SyntheticProblem sp(15, 0.1, 4);
  IterAligner aligner;
  auto result = aligner.Align(sp.Problem({}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(sp.index->SatisfiesOneToOne(result.value().y));
}

TEST(IterAlignerTest, PinnedPositivesStayPositive) {
  SyntheticProblem sp(8, 0.05, 5);
  auto true_ids = sp.TrueLinkIds();
  std::vector<size_t> labeled = {true_ids[2], true_ids[5]};
  IterAligner aligner;
  auto result = aligner.Align(sp.Problem(labeled));
  ASSERT_TRUE(result.ok());
  for (size_t id : labeled) EXPECT_EQ(result.value().y(id), 1.0);
}

TEST(IterAlignerTest, MoreLabelsDoNotHurt) {
  SyntheticProblem sp(25, 0.08, 6);
  auto true_ids = sp.TrueLinkIds();
  IterAligner aligner;
  auto few = aligner.Align(sp.Problem({true_ids[0]}));
  std::vector<size_t> many(true_ids.begin(), true_ids.begin() + 8);
  auto lots = aligner.Align(sp.Problem(many));
  ASSERT_TRUE(few.ok());
  ASSERT_TRUE(lots.ok());
  auto accuracy = [&](const Vector& y) {
    size_t correct = 0;
    for (size_t id = 0; id < sp.candidates.size(); ++id) {
      if (y(id) == sp.truth(id)) ++correct;
    }
    return static_cast<double>(correct) / sp.candidates.size();
  };
  EXPECT_GE(accuracy(lots.value().y) + 0.02, accuracy(few.value().y));
}

TEST(IterAlignerTest, DeltaYTraceIsL1Movement) {
  SyntheticProblem sp(6, 0.02, 7);
  IterAligner aligner;
  auto result = aligner.Align(sp.Problem({}));
  ASSERT_TRUE(result.ok());
  for (double d : result.value().trace.delta_y) {
    EXPECT_GE(d, 0.0);
    // Integral labels: Δy is a whole number of flips.
    EXPECT_EQ(d, std::floor(d));
  }
}

}  // namespace
}  // namespace activeiter
