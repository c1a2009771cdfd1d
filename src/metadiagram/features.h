// Meta-diagram feature extraction for candidate anchor links.
//
// Builds the paper's full feature catalog
//   Φ = P ∪ Ψf² ∪ Ψa² ∪ Ψf,a ∪ Ψf,a² ∪ Ψf²,a²
// (31 proximity features, §III-B) or the meta-path-only subset used by the
// SVM-MP baseline (6 features), computes each diagram's proximity scores for
// a candidate set, and assembles the feature matrix X (a trailing all-ones
// bias column is appended, matching the paper's dummy feature).

#ifndef ACTIVEITER_METADIAGRAM_FEATURES_H_
#define ACTIVEITER_METADIAGRAM_FEATURES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/graph/incidence.h"
#include "src/linalg/matrix.h"
#include "src/metadiagram/meta_diagram.h"
#include "src/metadiagram/proximity.h"

namespace activeiter {

/// Which slice of the catalog to use.
enum class FeatureSet {
  kMetaPathOnly,        // P1..P6 (SVM-MP)
  kMetaPathAndDiagram,  // full Φ (everything else)
};

/// Builds the diagram catalog for a feature set. `include_word_path`
/// additionally appends the P7 Common Word extension (and, for the full
/// set, its Ψ-style stackings with the social paths).
std::vector<MetaDiagram> StandardDiagramCatalog(FeatureSet set,
                                                bool include_word_path = false);

/// Options of the extractor.
struct FeatureExtractorOptions {
  FeatureSet feature_set = FeatureSet::kMetaPathAndDiagram;
  bool include_word_path = false;
  /// Optional pool for per-diagram parallelism; nullptr = sequential.
  ThreadPool* pool = nullptr;
};

/// Extracts proximity feature matrices from an aligned pair, bridging
/// through a given training anchor set.
class FeatureExtractor {
 public:
  /// `pair` must outlive the extractor. `train_anchors` is L+ (the bridge).
  FeatureExtractor(const AlignedPair& pair,
                   std::vector<AnchorLink> train_anchors,
                   FeatureExtractorOptions options = {});

  /// Feature names in column order (bias excluded).
  const std::vector<std::string>& feature_names() const { return names_; }

  /// Number of feature columns including the bias column.
  size_t dimension() const { return catalog_.size() + 1; }

  /// Diagram catalog backing the columns.
  const std::vector<MetaDiagram>& catalog() const { return catalog_; }

  /// |H| × dimension() feature matrix; column order matches
  /// feature_names(), last column is the bias 1.
  Matrix Extract(const CandidateLinkSet& candidates) const;

  /// Per-diagram proximity for a single user pair (diagnostics/examples).
  std::vector<double> ExtractOne(NodeId u1, NodeId u2) const;

 private:
  void EnsureScores() const;

  const AlignedPair* pair_;
  RelationContext ctx_;
  std::vector<MetaDiagram> catalog_;
  std::vector<std::string> names_;
  FeatureExtractorOptions options_;
  // Lazily computed per-diagram proximity tables; each shares its count
  // matrix with the evaluator's cache rather than copying it.
  mutable std::vector<std::shared_ptr<const ProximityScores>> scores_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_METADIAGRAM_FEATURES_H_
