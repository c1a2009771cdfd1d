// Failure-injection and boundary-condition tests across module seams:
// degenerate inputs must surface as Status errors or well-defined empty
// results, never as crashes or silent nonsense.

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "src/align/active_iter.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/eval/protocol.h"
#include "src/graph/io.h"
#include "src/learn/ridge.h"
#include "src/metadiagram/features.h"

namespace activeiter {
namespace {

AlignedPair TinyPair(uint64_t seed = 41) {
  auto pair = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(pair.ok());
  return std::move(pair).ValueOrDie();
}

TEST(RobustnessTest, FeatureExtractionWithEmptyCandidateSet) {
  AlignedPair pair = TinyPair();
  FeatureExtractor extractor(pair, pair.anchors());
  CandidateLinkSet empty;
  Matrix x = extractor.Extract(empty);
  EXPECT_EQ(x.rows(), 0u);
  EXPECT_EQ(x.cols(), extractor.feature_names().size() + 1);
}

TEST(RobustnessTest, FeatureExtractionWithoutAnchorBridge) {
  // No training anchors: social features vanish but attribute features
  // survive, and the whole pipeline still runs.
  AlignedPair pair = TinyPair();
  FeatureExtractor extractor(pair, /*train_anchors=*/{});
  CandidateLinkSet candidates;
  candidates.Add(0, 0);
  candidates.Add(1, 1);
  Matrix x = extractor.Extract(candidates);
  EXPECT_EQ(x.rows(), 2u);
  // P1..P4 columns (0..3) must be all zero.
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 4; ++j) EXPECT_EQ(x(i, j), 0.0);
  }
}

TEST(RobustnessTest, ProtocolSurfacesInfeasibleNegativeSampling) {
  // 3x3 users cannot supply 3282*50 negatives; must be a clean error.
  HeteroNetwork a(NetworkSchema::SocialNetwork(), "n1");
  a.AddNodes(NodeType::kUser, 3);
  HeteroNetwork b(NetworkSchema::SocialNetwork(), "n2");
  b.AddNodes(NodeType::kUser, 3);
  AlignedPair pair(std::move(a), std::move(b));
  ASSERT_TRUE(pair.AddAnchor(0, 0).ok());
  ASSERT_TRUE(pair.AddAnchor(1, 1).ok());
  ProtocolConfig cfg;
  cfg.np_ratio = 50.0;
  cfg.num_folds = 2;
  auto protocol = Protocol::Create(pair, cfg);
  EXPECT_FALSE(protocol.ok());
  EXPECT_EQ(protocol.status().code(), StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, ActiveIterWithBudgetBeyondCandidates) {
  // Budget exceeding the unlabeled pool: model must stop gracefully after
  // exhausting queryable links.
  AlignedPair pair = TinyPair();
  CandidateLinkSet candidates;
  for (NodeId u = 0; u < 4; ++u) candidates.Add(u, u);
  IncidenceIndex index(pair, candidates);
  Matrix x(4, 2);
  for (size_t i = 0; i < 4; ++i) {
    x(i, 0) = 0.5;
    x(i, 1) = 1.0;
  }
  AlignmentProblem problem;
  problem.x = &x;
  problem.index = &index;
  problem.pinned.assign(4, Pin::kFree);
  ActiveIterOptions options;
  options.budget = 100;  // far more than 4 links
  ActiveIterModel model(options);
  Oracle oracle(pair, options.budget);
  auto result = model.Run(problem, &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().queries.size(), 4u);
}

TEST(RobustnessTest, IterAlignerWithIterationCapOne) {
  AlignedPair pair = TinyPair();
  CandidateLinkSet candidates;
  for (NodeId u = 0; u < 6; ++u) candidates.Add(u, u);
  IncidenceIndex index(pair, candidates);
  Matrix x(6, 2);
  for (size_t i = 0; i < 6; ++i) {
    x(i, 0) = 0.9;
    x(i, 1) = 1.0;
  }
  AlignmentProblem problem;
  problem.x = &x;
  problem.index = &index;
  problem.pinned.assign(6, Pin::kFree);
  problem.pinned[0] = Pin::kPositive;
  IterAlignerOptions options;
  options.max_iterations = 1;
  IterAligner aligner(options);
  auto result = aligner.Align(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().trace.iterations(), 1u);
  // A single iteration that still moved labels is reported unconverged.
  if (result.value().trace.delta_y[0] > 0.0) {
    EXPECT_FALSE(result.value().trace.converged);
  }
}

TEST(RobustnessTest, RidgeHandlesDuplicateAndConstantColumns) {
  // XᵀX is singular (duplicate + constant columns) but I + cXᵀX is SPD.
  Matrix x(10, 3);
  for (size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = static_cast<double>(i);  // duplicate column
    x(i, 2) = 1.0;                     // constant column
  }
  Vector y(10, 1.0);
  auto w = FitRidge(x, y, 1.0);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(std::isfinite(w.value().Norm2()));
}

TEST(RobustnessTest, EmptyStreamIsRejectedByLoader) {
  std::stringstream empty;
  auto loaded = LoadAlignedPair(&empty);
  EXPECT_FALSE(loaded.ok());
}

TEST(RobustnessTest, GreedyWithAllScoresBelowThreshold) {
  AlignedPair pair = TinyPair();
  CandidateLinkSet candidates;
  candidates.Add(0, 1);
  candidates.Add(1, 0);
  IncidenceIndex index(pair, candidates);
  Vector scores = {-0.5, -0.1};
  std::vector<Pin> pins(2, Pin::kFree);
  Vector y = GreedySelect(scores, index, pins, 0.0);
  EXPECT_EQ(y.Norm1(), 0.0);
}

TEST(RobustnessTest, ExtractorDimensionMatchesCatalog) {
  AlignedPair pair = TinyPair();
  for (bool word : {false, true}) {
    for (FeatureSet set :
         {FeatureSet::kMetaPathOnly, FeatureSet::kMetaPathAndDiagram}) {
      FeatureExtractorOptions options;
      options.feature_set = set;
      options.include_word_path = word;
      FeatureExtractor extractor(pair, pair.anchors(), options);
      EXPECT_EQ(extractor.feature_names().size() + 1,
                StandardDiagramCatalog(set, word).size() + 1);
    }
  }
}

TEST(RobustnessTest, OracleBudgetExactlyMatchesQueries) {
  AlignedPair pair = TinyPair();
  CandidateLinkSet candidates;
  for (NodeId u = 0; u < 10; ++u) {
    candidates.Add(u, u);
    candidates.Add(u, (u + 1) % 10);
  }
  IncidenceIndex index(pair, candidates);
  Matrix x(candidates.size(), 2);
  Rng rng(3);
  for (size_t i = 0; i < candidates.size(); ++i) {
    x(i, 0) = rng.UniformDouble();
    x(i, 1) = 1.0;
  }
  AlignmentProblem problem;
  problem.x = &x;
  problem.index = &index;
  problem.pinned.assign(candidates.size(), Pin::kFree);
  ActiveIterOptions options;
  options.budget = 7;
  options.batch_size = 3;  // 7 = 3 + 3 + 1: final short batch
  ActiveIterModel model(options);
  Oracle oracle(pair, options.budget);
  auto result = model.Run(problem, &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(oracle.queries_used(), 7u);
  EXPECT_EQ(oracle.queries_used(), result.value().queries.size());
}

}  // namespace
}  // namespace activeiter
