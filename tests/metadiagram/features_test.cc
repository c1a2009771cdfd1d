#include "src/metadiagram/features.h"

#include <set>

#include <gtest/gtest.h>

#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/linalg/sparse_ops.h"
#include "src/metadiagram/covering_set.h"

namespace activeiter {
namespace {

AlignedPair TinyPair(uint64_t seed = 7) {
  auto pair = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(pair.ok());
  return std::move(pair).ValueOrDie();
}

TEST(CatalogTest, MetaPathOnlyHasSixFeatures) {
  auto catalog = StandardDiagramCatalog(FeatureSet::kMetaPathOnly);
  EXPECT_EQ(catalog.size(), 6u);
}

TEST(CatalogTest, FullCatalogHasTwentyNineDistinctFeatures) {
  // 6 paths + 6 Ψf² + 1 Ψ2 + 8 Ψf,a + 4 Ψf,a² + 6 Ψf²,a² = 31 nominal
  // entries (§III-B), of which P1×P2 ≡ P3×P4 (and hence their Ψ2
  // stackings) denote the same diagram -> 29 distinct features.
  auto catalog = StandardDiagramCatalog(FeatureSet::kMetaPathAndDiagram);
  EXPECT_EQ(catalog.size(), 29u);
}

TEST(CatalogTest, WordExtensionGrowsCatalog) {
  auto base = StandardDiagramCatalog(FeatureSet::kMetaPathAndDiagram, false);
  auto ext = StandardDiagramCatalog(FeatureSet::kMetaPathAndDiagram, true);
  EXPECT_GT(ext.size(), base.size());
  auto mp_ext = StandardDiagramCatalog(FeatureSet::kMetaPathOnly, true);
  EXPECT_EQ(mp_ext.size(), 7u);  // P1..P7
}

TEST(CatalogTest, IdsAreUnique) {
  auto catalog = StandardDiagramCatalog(FeatureSet::kMetaPathAndDiagram);
  std::set<std::string> ids;
  for (const auto& d : catalog) ids.insert(d.id());
  EXPECT_EQ(ids.size(), catalog.size());
}

TEST(CatalogTest, SignaturesAreUnique) {
  auto catalog = StandardDiagramCatalog(FeatureSet::kMetaPathAndDiagram);
  std::set<std::string> sigs;
  for (const auto& d : catalog) sigs.insert(d.Signature());
  EXPECT_EQ(sigs.size(), catalog.size());
}

void AppendChainFactors(const ExprPtr& node, std::vector<ExprPtr>* out) {
  if (node->kind() != DiagramNode::Kind::kChain) {
    out->push_back(node);
    return;
  }
  for (const ExprPtr& child : node->children()) AppendChainFactors(child, out);
}

/// A diagram's count matrix by its definition: a chain (nested chains
/// flattened) is the left-to-right SpGemm of its factors, a parallel the
/// Hadamard fold of its branches. No cache, no regrouping, no face
/// splitting.
SparseMatrix ReferenceCounts(const RelationContext& ctx, const ExprPtr& node) {
  switch (node->kind()) {
    case DiagramNode::Kind::kStep:
      return ctx.Get(node->step());
    case DiagramNode::Kind::kChain: {
      std::vector<ExprPtr> factors;
      AppendChainFactors(node, &factors);
      SparseMatrix acc = ReferenceCounts(ctx, factors[0]);
      for (size_t i = 1; i < factors.size(); ++i) {
        acc = SpGemm(acc, ReferenceCounts(ctx, factors[i]));
      }
      return acc;
    }
    case DiagramNode::Kind::kParallel: {
      SparseMatrix acc = ReferenceCounts(ctx, node->children()[0]);
      for (size_t i = 1; i < node->children().size(); ++i) {
        acc = Hadamard(acc, ReferenceCounts(ctx, node->children()[i]));
      }
      return acc;
    }
  }
  return {};
}

bool BitwiseEqual(const SparseMatrix& a, const SparseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() &&
         a.values() == b.values();
}

TEST(CatalogDefinitionTest, EngineAndExtractMatchReferenceBitwise) {
  for (uint64_t seed : {7u, 21u, 40u}) {
    AlignedPair pair = TinyPair(seed);
    std::vector<AnchorLink> train(pair.anchors().begin(),
                                  pair.anchors().begin() + 12);
    RelationContext ctx(pair, train);
    CandidateLinkSet every_pair;
    for (NodeId u1 = 0; u1 < pair.first().NodeCount(NodeType::kUser); ++u1) {
      for (NodeId u2 = 0; u2 < pair.second().NodeCount(NodeType::kUser);
           ++u2) {
        every_pair.Add(u1, u2);
      }
    }
    for (FeatureSet set :
         {FeatureSet::kMetaPathOnly, FeatureSet::kMetaPathAndDiagram}) {
      for (bool word_path : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " full "
                     << (set == FeatureSet::kMetaPathAndDiagram)
                     << " word path " << word_path);
        FeatureExtractorOptions options;
        options.feature_set = set;
        options.include_word_path = word_path;
        FeatureExtractor extractor(pair, train, options);
        const Matrix x = extractor.Extract(every_pair);
        DiagramEvaluator evaluator(&ctx);
        const std::vector<MetaDiagram> catalog =
            StandardDiagramCatalog(set, word_path);
        ASSERT_EQ(x.cols(), catalog.size() + 1);
        for (size_t k = 0; k < catalog.size(); ++k) {
          SparseMatrix reference = ReferenceCounts(ctx, catalog[k].root());
          EXPECT_TRUE(BitwiseEqual(*evaluator.Evaluate(catalog[k]), reference))
              << catalog[k].id();
          const Vector column =
              ProximityScores(std::move(reference)).ScoresFor(every_pair);
          size_t mismatches = 0;
          for (size_t i = 0; i < x.rows(); ++i) {
            if (x(i, k) != column(i)) ++mismatches;
          }
          EXPECT_EQ(mismatches, 0u) << catalog[k].id();
        }
        for (size_t i = 0; i < x.rows(); ++i) {
          ASSERT_EQ(x(i, catalog.size()), 1.0);
        }
      }
    }
  }
}

TEST(FeatureExtractorTest, MatrixShapeAndBias) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train(pair.anchors().begin(),
                                pair.anchors().begin() + 10);
  FeatureExtractor extractor(pair, train);
  CandidateLinkSet candidates;
  candidates.Add(0, 0);
  candidates.Add(1, 2);
  candidates.Add(3, 3);
  Matrix x = extractor.Extract(candidates);
  EXPECT_EQ(x.rows(), 3u);
  EXPECT_EQ(x.cols(), 30u);  // 29 distinct features + bias
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(x(i, 29), 1.0);
}

TEST(FeatureExtractorTest, ScoresAreInUnitInterval) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train(pair.anchors().begin(),
                                pair.anchors().begin() + 10);
  FeatureExtractor extractor(pair, train);
  CandidateLinkSet candidates;
  for (NodeId u = 0; u < 20; ++u) candidates.Add(u, u);
  Matrix x = extractor.Extract(candidates);
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j + 1 < x.cols(); ++j) {
      EXPECT_GE(x(i, j), 0.0);
      EXPECT_LE(x(i, j), 1.0);
    }
  }
}

TEST(FeatureExtractorTest, DeterministicAcrossRuns) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train(pair.anchors().begin(),
                                pair.anchors().begin() + 10);
  CandidateLinkSet candidates;
  candidates.Add(2, 5);
  candidates.Add(7, 1);
  FeatureExtractor a(pair, train);
  FeatureExtractor b(pair, train);
  EXPECT_EQ(Matrix::MaxAbsDiff(a.Extract(candidates), b.Extract(candidates)),
            0.0);
}

TEST(FeatureExtractorTest, ParallelMatchesSequential) {
  AlignedPair pair = TinyPair();
  std::vector<AnchorLink> train(pair.anchors().begin(),
                                pair.anchors().begin() + 10);
  CandidateLinkSet candidates;
  for (NodeId u = 0; u < 10; ++u) candidates.Add(u, 9 - u);
  FeatureExtractor seq(pair, train);
  ThreadPool pool(4);
  FeatureExtractorOptions opt;
  opt.pool = &pool;
  FeatureExtractor par(pair, train, opt);
  EXPECT_EQ(
      Matrix::MaxAbsDiff(seq.Extract(candidates), par.Extract(candidates)),
      0.0);
}

TEST(FeatureExtractorTest, AnchoredPairsScoreHigherOnAverage) {
  // The planted signal must surface in the features: mean feature mass of
  // true anchors exceeds that of random non-anchors.
  AlignedPair pair = TinyPair(21);
  std::vector<AnchorLink> train(pair.anchors().begin(),
                                pair.anchors().begin() + 20);
  FeatureExtractor extractor(pair, train);

  CandidateLinkSet positives, negatives;
  for (size_t i = 20; i < pair.anchor_count(); ++i) {
    positives.Add(pair.anchors()[i].u1, pair.anchors()[i].u2);
    // mismatched partner = definite negative
    negatives.Add(pair.anchors()[i].u1,
                  pair.anchors()[(i + 3) % pair.anchor_count()].u2);
  }
  Matrix xp = extractor.Extract(positives);
  Matrix xn = extractor.Extract(negatives);
  auto mean_mass = [](const Matrix& m) {
    double total = 0.0;
    for (size_t i = 0; i < m.rows(); ++i) {
      for (size_t j = 0; j + 1 < m.cols(); ++j) total += m(i, j);
    }
    return total / static_cast<double>(m.rows());
  };
  EXPECT_GT(mean_mass(xp), 1.5 * mean_mass(xn));
}

TEST(FeatureExtractorTest, LemmaOnePruningDirectionHolds) {
  // Sound direction of Lemma 1 (the one the covering-set pruning relies
  // on): a nonzero diagram count implies nonzero counts for every covered
  // meta path.
  AlignedPair pair = TinyPair(5);
  std::vector<AnchorLink> train(pair.anchors().begin(),
                                pair.anchors().begin() + 20);
  RelationContext ctx(pair, train);
  DiagramEvaluator evaluator(&ctx);
  auto catalog = StandardDiagramCatalog(FeatureSet::kMetaPathAndDiagram);
  for (const auto& diagram : catalog) {
    auto counts = evaluator.Evaluate(diagram);
    std::vector<MetaPath> cover = CoveringMetaPaths(diagram);
    std::vector<SparseMatrix> cover_counts;
    for (const auto& p : cover) cover_counts.push_back(p.CountMatrix(ctx));
    counts->ForEach([&](size_t i, size_t j, double v) {
      if (v <= 0.0) return;
      for (size_t k = 0; k < cover_counts.size(); ++k) {
        EXPECT_GT(cover_counts[k].At(i, j), 0.0)
            << diagram.id() << " covered path " << cover[k].id()
            << " missing at (" << i << "," << j << ")";
      }
    });
  }
}

}  // namespace
}  // namespace activeiter
