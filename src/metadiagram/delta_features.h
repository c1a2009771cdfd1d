// Delta-aware meta-diagram feature extraction.
//
// FeatureExtractor (features.h) computes the full catalog from scratch —
// the right tool when the networks are frozen per fold. The online serving
// path instead sees a *stream* of graph deltas: new users, new edges, new
// candidate pairs. Recomputing every SpGEMM chain per batch would dwarf
// the cost of the deltas themselves, so this extractor keeps the product
// DAG alive across epochs:
//
//   * every intermediate count matrix survives in a persistent
//     ProductPlanCache, keyed by the same canonical expression signatures
//     the evaluator uses;
//   * a delta dirties exactly the step tokens of its touched relations
//     ("1:follow>", "2:checkin<", ...); a cached intermediate whose
//     signature mentions no dirty token is padded to the grown node
//     universes (new nodes have no edges yet, so padding with empty
//     rows/columns IS the recomputed product);
//   * a dirty intermediate is not necessarily lost either: the delta's
//     edge endpoints bound which ROWS of each chain product can change, so
//     Refresh() walks dirty chains prefix-by-prefix and recomputes only
//     the delta-reachable output rows over last epoch's product
//     (SpGemmRowUpdate — bitwise-equal to the full SpGEMM), falling back
//     to the full chain recompute when the changed-row fraction exceeds
//     FeatureExtractorOptions::spgemm_row_update_max_fraction;
//   * a face-split node (IsFaceSplit — Ψ2's co-timed ∘ co-located post
//     pairs) is recomputed, not spliced: FaceSplitHadamard costs O(posts)
//     and never forms the post × post branch products a splice would need
//     as bases. Its changed rows follow from its factors' changed rows, so
//     the chains above it still splice;
//   * a diagram whose root signature survives migration is served without
//     touching a single kernel; remaining dirty diagrams re-evaluate and
//     hit the migrated cache for every clean or spliced sub-chain (the
//     PR 1 reuse discipline extended across time).
//
// Extract() is bitwise-identical to a fresh FeatureExtractor over the
// current pair: padding adds empty rows, and every recomputed product sees
// exactly the inputs a from-scratch evaluation would.
//
// The anchor bridge is the *fixed* labeled set L+ — ground-truth anchors
// revealed by a delta are oracle/evaluation data, not model input — so
// anchor matrices are rebuilt (cheap) but never dirty the cache.

#ifndef ACTIVEITER_METADIAGRAM_DELTA_FEATURES_H_
#define ACTIVEITER_METADIAGRAM_DELTA_FEATURES_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/graph/aligned_pair.h"
#include "src/metadiagram/features.h"
#include "src/metadiagram/product_plan.h"
#include "src/metadiagram/proximity.h"
#include "src/metadiagram/relation_matrices.h"
#include "src/obs/metrics.h"

namespace activeiter {

/// One epoch's proximity tables: the Dice table of every catalog diagram
/// and the user universes they span. Immutable: every Refresh() publishes
/// a new object and never touches an old one, so a reader holding the
/// tables of epoch N may keep reading them while the engine refreshes
/// epoch N+1.
class ProximityTables {
 public:
  ProximityTables(std::vector<std::shared_ptr<const ProximityScores>> scores,
                  size_t users_first, size_t users_second)
      : scores_(std::move(scores)),
        users_first_(users_first),
        users_second_(users_second) {}

  /// Number of feature columns including the trailing bias column.
  size_t dimension() const { return scores_.size() + 1; }
  /// User universes of the two networks at this epoch.
  size_t users_first() const { return users_first_; }
  size_t users_second() const { return users_second_; }

  /// Diagram k's table (k < dimension() - 1).
  const ProximityScores& table(size_t k) const { return *scores_[k]; }

  /// The |H| × dimension() feature matrix of a compacted candidate set in
  /// CSR, bias 1.0 in every row: each network-1 user's row of each count
  /// table is walked once, and only nonzero Dice values are stored, so X is
  /// bitwise CompressDense of the dense X per-pair Score() fills. Scratch
  /// is local, so threads may gather from one tables object at once.
  SparseMatrix Gather(const CandidateLinkSet& candidates) const;

 private:
  std::vector<std::shared_ptr<const ProximityScores>> scores_;
  size_t users_first_;
  size_t users_second_;
};

/// Feature extraction that survives graph deltas.
class DeltaFeatureExtractor {
 public:
  /// Cumulative reuse accounting across Refresh() epochs. Per-instance;
  /// the same fields are also summed across all extractors as
  /// "metadiagram.*" counters on MetricsRegistry::Default().
  struct RefreshStats {
    size_t refreshes = 0;               // Refresh calls with pending work
    size_t diagrams_recomputed = 0;     // columns whose DAG re-ran in full
    size_t diagrams_reused = 0;         // columns served from migration
    size_t diagrams_row_updated = 0;    // columns served by row splicing
    size_t intermediates_dropped = 0;   // cache entries lost to dirty tokens
    size_t intermediates_migrated = 0;  // cache entries padded and kept
    size_t intermediates_row_updated = 0;  // dirty entries spliced in place
  };

  /// `pair` must outlive the extractor and is observed through every
  /// mutation the caller applies; `train_anchors` is the fixed bridge L+.
  DeltaFeatureExtractor(const AlignedPair& pair,
                        std::vector<AnchorLink> train_anchors,
                        FeatureExtractorOptions options = {});

  /// Feature names in column order (bias excluded).
  const std::vector<std::string>& feature_names() const { return names_; }

  /// Marks the relations touched by `delta` dirty. Call after
  /// pair.ApplyDelta(delta); cheap — all recomputation happens in
  /// Refresh().
  void NoteDelta(const PairDelta& delta);

  /// Brings the engine up to date with every NoteDelta() since the last
  /// call: rebuilds the relation context, migrates the plan cache
  /// (pad-or-drop), re-evaluates dirty diagrams, refreshes proximity
  /// tables. Returns the dirty feature column indices, ascending (empty
  /// when nothing was pending; all columns on the first call).
  std::vector<size_t> Refresh();

  /// |H| × (feature_names().size() + 1) feature matrix over the current
  /// graph state: the tables' Gather, densified (bitwise-identical to a
  /// fresh FeatureExtractor). Runs Refresh() implicitly when deltas are
  /// pending.
  Matrix Extract(const CandidateLinkSet& candidates);

  /// The tables the last Refresh() published. Refresh() must be up to
  /// date; the returned tables stay valid (and unchanged) for as long as
  /// the caller holds them.
  std::shared_ptr<const ProximityTables> tables() const;

  const RefreshStats& stats() const { return stats_; }

  /// Reuse accounting of the live plan cache (resets at each migration).
  ProductPlanCache::Stats cache_stats() const { return cache_->stats(); }

 private:
  struct Shape {
    NodeType src_type;
    NetworkSide src_side;
    NodeType dst_type;
    NetworkSide dst_side;
  };

  void IndexShapes(const ExprPtr& node);
  size_t UniverseOf(NodeType type, NetworkSide side) const;
  bool pending() const { return !initialised_ || pending_refresh_; }

  /// Serves dirty catalog roots by row splicing (SpGemmRowUpdate) over the
  /// previous epoch's cache where the delta's changed-row reach allows it;
  /// returns the root signatures served this way (already stored in
  /// cache_). `old_cache` is last epoch's (unpadded) intermediate store.
  std::unordered_set<std::string> RowUpdateDirtyRoots(
      const ProductPlanCache& old_cache);

  /// Adds this Refresh's stats_ movement (vs the entry snapshot) to the
  /// process-wide "metadiagram.*" registry counters.
  void PublishRefreshStatsDelta(const RefreshStats& before);

  const AlignedPair* pair_;
  std::vector<AnchorLink> train_anchors_;
  FeatureExtractorOptions options_;
  std::vector<MetaDiagram> catalog_;
  std::vector<std::string> names_;

  // Signature → endpoint shape for every catalog sub-expression and chain
  // prefix (everything the evaluator can ever store); step signatures are
  // tracked separately because their cache entries alias the context.
  std::unordered_map<std::string, Shape> shape_of_sig_;
  std::unordered_set<std::string> step_sigs_;

  std::unique_ptr<RelationContext> ctx_;
  std::unique_ptr<ProductPlanCache> cache_;
  std::shared_ptr<const ProximityTables> tables_;

  bool initialised_ = false;
  bool pending_refresh_ = false;
  std::unordered_set<std::string> dirty_tokens_;
  // Step token → source rows of that step's adjacency changed by the
  // pending deltas (an edge (src, dst) changes row src of the forward
  // matrix and row dst of the backward one). Drives the delta-bounded
  // incremental SpGEMM in Refresh(); cleared alongside dirty_tokens_.
  std::unordered_map<std::string, std::unordered_set<uint32_t>>
      changed_step_rows_;
  RefreshStats stats_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_METADIAGRAM_DELTA_FEATURES_H_
