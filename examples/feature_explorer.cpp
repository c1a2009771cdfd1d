// Scenario: understanding *why* two accounts are (or are not) the same
// person. Prints the meta-diagram catalog with covering sets, then breaks
// down the per-diagram proximity of a true anchored pair against an
// impostor pair — the interpretability story behind the paper's features.
//
//   ./build/examples/feature_explorer [seed]

#include <iostream>

#include "src/common/string_util.h"
#include "src/common/table.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/metadiagram/covering_set.h"
#include "src/metadiagram/features.h"

using namespace activeiter;

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;

  auto pair_or = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  if (!pair_or.ok()) {
    std::cerr << "generation failed: " << pair_or.status() << "\n";
    return 1;
  }
  AlignedPair pair = std::move(pair_or).ValueOrDie();

  // 1. The catalog: paths, diagrams, semantics and covering sets.
  auto catalog = StandardDiagramCatalog(FeatureSet::kMetaPathAndDiagram);
  std::cout << "Meta-diagram catalog (" << catalog.size()
            << " distinct features):\n";
  TextTable cat;
  cat.SetHeader({"id", "semantics", "|covered paths|", "min cover"});
  for (const auto& d : catalog) {
    cat.AddRow({d.id(), d.semantics(),
                std::to_string(EnumerateCoveredPaths(d.root()).size()),
                std::to_string(MinimumCoveringSet(d).size())});
  }
  cat.Print(std::cout);

  // 2. Feature breakdown for a true anchor vs an impostor.
  std::vector<AnchorLink> train(pair.anchors().begin(),
                                pair.anchors().begin() + 15);
  const AnchorLink& target = pair.anchors()[20];  // unseen true anchor
  const AnchorLink& other = pair.anchors()[25];
  NodeId impostor = other.u2;

  // Row 0 of X is the true pair, row 1 the impostor.
  CandidateLinkSet links;
  links.Add(target.u1, target.u2);
  links.Add(target.u1, impostor);
  const Matrix x = FeatureExtractor(pair, train).Extract(links);

  std::cout << "\nPer-diagram proximity: user " << target.u1
            << " (network 1) vs its true partner " << target.u2
            << " and an impostor " << impostor << " (network 2).\n";
  TextTable features;
  features.SetHeader({"diagram", "true pair", "impostor", "verdict"});
  double true_total = 0.0, false_total = 0.0;
  for (size_t k = 0; k < catalog.size(); ++k) {
    const double true_feature = x(0, k);
    const double false_feature = x(1, k);
    true_total += true_feature;
    false_total += false_feature;
    if (true_feature == 0.0 && false_feature == 0.0) continue;
    features.AddRow({catalog[k].id(), FormatDouble(true_feature, 4),
                     FormatDouble(false_feature, 4),
                     true_feature > false_feature   ? "true pair"
                     : true_feature < false_feature ? "impostor"
                                                    : "tie"});
  }
  features.Print(std::cout);
  std::cout << "total feature mass: true pair " << FormatDouble(true_total, 4)
            << " vs impostor " << FormatDouble(false_total, 4) << "\n";

  // 3. Lemma 2 in action: the covering-set subset relation lets the engine
  //    reuse Ψ2 counts inside every larger diagram that covers it.
  MetaDiagram p5 = MetaDiagram::FromMetaPath(AttributeMetaPaths()[0]);
  for (const auto& d : catalog) {
    if (d.id() == "MD[P1xPSI2]") {
      std::cout << "\nLemma 2 check: C(P5) subset of C(" << d.id()
                << ")? " << (CoveringSubset(p5, d) ? "yes" : "no")
                << " — so wherever " << d.id()
                << " connects a pair, P5 connects it too.\n";
    }
  }
  return 0;
}
