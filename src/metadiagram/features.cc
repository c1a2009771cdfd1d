#include "src/metadiagram/features.h"

#include <mutex>

#include "src/common/string_util.h"

namespace activeiter {
namespace {

MetaDiagram MustDiagram(const std::string& id, const std::string& semantics,
                        Result<ExprPtr> expr) {
  ACTIVEITER_CHECK_MSG(expr.ok(), expr.status().ToString());
  auto d = MetaDiagram::Create(id, semantics, std::move(expr).value());
  ACTIVEITER_CHECK_MSG(d.ok(), d.status().ToString());
  return std::move(d).value();
}

/// Fuses two social meta paths (Chain(seg1, anchor, seg3)) on their shared
/// intermediate anchored user pair: Ψ = Chain(Parallel(seg1s), anchor,
/// Parallel(seg3s)) — the Ψf² construction of Table I (Ψ1 = P1 × P2).
MetaDiagram FuseSocialPair(const MetaPath& a, const MetaPath& b) {
  ACTIVEITER_CHECK(a.steps().size() == 3 && b.steps().size() == 3);
  auto seg1 = DiagramBuilder::Parallel(
      {DiagramBuilder::Step(a.steps()[0]), DiagramBuilder::Step(b.steps()[0])});
  auto seg3 = DiagramBuilder::Parallel(
      {DiagramBuilder::Step(a.steps()[2]), DiagramBuilder::Step(b.steps()[2])});
  ACTIVEITER_CHECK(seg1.ok() && seg3.ok());
  auto chain = DiagramBuilder::Chain({std::move(seg1).value(),
                                      DiagramBuilder::Step(a.steps()[1]),
                                      std::move(seg3).value()});
  return MustDiagram(StrFormat("MD[%sx%s]", a.id().c_str(), b.id().c_str()),
                     "Common Aligned Neighbors (" + a.id() + "×" + b.id() +
                         ")",
                     std::move(chain));
}

/// A four-step attribute path U–P–A–P–U as Chain(Chain(s0, s1), Chain(s2,
/// s3)): evaluated as (U1×A)·(A×U2), it never forms the U1×P2 product a
/// left-to-right chain does. Counts are integers, so the regrouping leaves
/// every value unchanged.
MetaDiagram HalvedAttributePath(const MetaPath& path) {
  const auto& s = path.steps();
  ACTIVEITER_CHECK(s.size() == 4);
  auto user_side = DiagramBuilder::Chain(
      {DiagramBuilder::Step(s[0]), DiagramBuilder::Step(s[1])});
  auto other_side = DiagramBuilder::Chain(
      {DiagramBuilder::Step(s[2]), DiagramBuilder::Step(s[3])});
  ACTIVEITER_CHECK(user_side.ok() && other_side.ok());
  return MustDiagram(path.id(), path.semantics(),
                     DiagramBuilder::Chain({std::move(user_side).value(),
                                            std::move(other_side).value()}));
}

/// Ψ2: the two attribute paths stacked on the same post pair — posts that
/// share BOTH timestamp and location (the "dislocation" fix of §III-B.2).
MetaDiagram MakePsi2() {
  constexpr auto kFirst = NetworkSide::kFirst;
  constexpr auto kSecond = NetworkSide::kSecond;
  auto time_branch = DiagramBuilder::Chain(
      {DiagramBuilder::Step(StepRef::Rel(kFirst, RelationType::kAt, true)),
       DiagramBuilder::Step(StepRef::Rel(kSecond, RelationType::kAt, false))});
  auto loc_branch = DiagramBuilder::Chain(
      {DiagramBuilder::Step(StepRef::Rel(kFirst, RelationType::kCheckin, true)),
       DiagramBuilder::Step(
           StepRef::Rel(kSecond, RelationType::kCheckin, false))});
  ACTIVEITER_CHECK(time_branch.ok() && loc_branch.ok());
  auto middle = DiagramBuilder::Parallel(
      {std::move(time_branch).value(), std::move(loc_branch).value()});
  ACTIVEITER_CHECK(middle.ok());
  auto chain = DiagramBuilder::Chain(
      {DiagramBuilder::Step(StepRef::Rel(kFirst, RelationType::kWrite, true)),
       std::move(middle).value(),
       DiagramBuilder::Step(
           StepRef::Rel(kSecond, RelationType::kWrite, false))});
  return MustDiagram("PSI2", "Common Attributes (co-located & co-timed)",
                     std::move(chain));
}

/// Endpoint-only stacking of two user-to-user diagrams.
MetaDiagram StackOnEndpoints(const std::string& id,
                             const std::string& semantics,
                             const MetaDiagram& a, const MetaDiagram& b) {
  auto par = DiagramBuilder::Parallel({a.root(), b.root()});
  return MustDiagram(id, semantics, std::move(par));
}

}  // namespace

std::vector<MetaDiagram> StandardDiagramCatalog(FeatureSet set,
                                                bool include_word_path) {
  std::vector<MetaDiagram> catalog;
  std::vector<MetaPath> social = SocialMetaPaths();
  std::vector<MetaDiagram> attr_diagrams;
  for (const auto& p : AttributeMetaPaths()) {
    attr_diagrams.push_back(HalvedAttributePath(p));
  }
  if (include_word_path) {
    attr_diagrams.push_back(HalvedAttributePath(CommonWordMetaPath()));
  }

  // P: the meta paths themselves (a path is a special diagram).
  for (const auto& p : social) catalog.push_back(MetaDiagram::FromMetaPath(p));
  for (const auto& d : attr_diagrams) catalog.push_back(d);
  if (set == FeatureSet::kMetaPathOnly) return catalog;

  // Ψf²: fused unordered pairs of social paths (shared anchored pair).
  std::vector<MetaDiagram> fused;
  for (size_t i = 0; i < social.size(); ++i) {
    for (size_t j = i + 1; j < social.size(); ++j) {
      fused.push_back(FuseSocialPair(social[i], social[j]));
    }
  }
  for (const auto& d : fused) catalog.push_back(d);

  // Ψa²: P5 × P6 stacked on the same post pair.
  MetaDiagram psi2 = MakePsi2();
  catalog.push_back(psi2);

  // Ψf,a: social path × attribute path, endpoint-only.
  for (const auto& ps : social) {
    MetaDiagram ps_diag = MetaDiagram::FromMetaPath(ps);
    for (const auto& pa : attr_diagrams) {
      catalog.push_back(StackOnEndpoints(
          StrFormat("MD[%sx%s]", ps.id().c_str(), pa.id().c_str()),
          "Common Aligned Neighbor & Attribute", ps_diag, pa));
    }
  }

  // Ψf,a²: social path × Ψ2.
  for (const auto& ps : social) {
    MetaDiagram ps_diag = MetaDiagram::FromMetaPath(ps);
    catalog.push_back(StackOnEndpoints(
        StrFormat("MD[%sxPSI2]", ps.id().c_str()),
        "Common Aligned Neighbor & Attributes", ps_diag, psi2));
  }

  // Ψf²,a²: fused social pair × Ψ2.
  for (const auto& f : fused) {
    catalog.push_back(StackOnEndpoints(
        StrFormat("MD[%sxPSI2]", f.id().c_str()),
        "Common Aligned Neighbors & Attributes", f, psi2));
  }

  // The enumerations above are set-valued in the paper (Ψf² = Pf × Pf,
  // ...), and some pairs denote the same diagram — e.g. P1×P2 and P3×P4
  // both fuse to the mutual-follow / anchor / mutual-follow subgraph.
  // Deduplicate by canonical signature, keeping the first occurrence.
  std::vector<MetaDiagram> unique;
  std::vector<std::string> seen;
  for (auto& d : catalog) {
    std::string sig = d.Signature();
    bool dup = false;
    for (const auto& s : seen) {
      if (s == sig) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      seen.push_back(std::move(sig));
      unique.push_back(std::move(d));
    }
  }
  return unique;
}

FeatureExtractor::FeatureExtractor(const AlignedPair& pair,
                                   std::vector<AnchorLink> train_anchors,
                                   FeatureExtractorOptions options)
    : pair_(&pair),
      ctx_(pair, train_anchors, options.pool),
      catalog_(StandardDiagramCatalog(options.feature_set,
                                      options.include_word_path)),
      options_(options) {
  names_.reserve(catalog_.size());
  for (const auto& d : catalog_) names_.push_back(d.id());
}

void FeatureExtractor::EnsureScores() const {
  if (!scores_.empty()) return;
  std::vector<std::shared_ptr<const ProximityScores>> computed(
      catalog_.size());
  EvaluatorOptions eval_options;
  eval_options.pool = options_.pool;
  DiagramEvaluator evaluator(&ctx_, eval_options);
  // Warm the plan cache with the meta paths sequentially — they are the
  // shared prefixes/sub-expressions of every stacked diagram, and seeding
  // them first keeps the concurrent fan-out below from racing to compute
  // the same intermediate twice.
  for (const auto& d : catalog_) {
    if (d.root()->kind() == DiagramNode::Kind::kChain) evaluator.Evaluate(d);
  }
  ThreadPool::ParallelFor(options_.pool, catalog_.size(), [&](size_t k) {
    computed[k] =
        std::make_shared<ProximityScores>(evaluator.Evaluate(catalog_[k]));
  });
  scores_ = std::move(computed);
}

Matrix FeatureExtractor::Extract(const CandidateLinkSet& candidates) const {
  EnsureScores();
  const size_t d = catalog_.size();
  Matrix x(candidates.size(), d + 1);
  for (size_t k = 0; k < d; ++k) {
    Vector col = scores_[k]->ScoresFor(candidates);
    for (size_t i = 0; i < candidates.size(); ++i) x(i, k) = col(i);
  }
  for (size_t i = 0; i < candidates.size(); ++i) x(i, d) = 1.0;  // bias
  return x;
}

std::vector<double> FeatureExtractor::ExtractOne(NodeId u1, NodeId u2) const {
  EnsureScores();
  std::vector<double> out;
  out.reserve(catalog_.size());
  for (const auto& s : scores_) out.push_back(s->Score(u1, u2));
  return out;
}

}  // namespace activeiter
