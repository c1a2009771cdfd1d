// Meta-diagram feature extraction for candidate anchor links.
//
// Builds the paper's full feature catalog
//   Φ = P ∪ Ψf² ∪ Ψa² ∪ Ψf,a ∪ Ψf,a² ∪ Ψf²,a²
// (31 proximity features, §III-B) or the meta-path-only subset used by the
// SVM-MP baseline (6 features), computes each diagram's proximity table,
// and gathers the feature matrix X of a candidate set (a trailing all-ones
// bias column is appended, matching the paper's dummy feature).
//
// FeatureExtractor is the one extractor, for a fold whose networks are
// frozen and for a graph that grows and shrinks under it alike. Its first
// Refresh() (epoch 0) evaluates every diagram in full with a
// DiagramEvaluator — the chain roots seeded serially, then the fan-out
// over FeatureExtractorOptions::pool — and an offline fold is that epoch
// plus the tables' row Gather (Extract()). A stream of graph deltas — new
// users, new or removed edges, new candidate pairs — would make
// recomputing every SpGEMM chain per batch dwarf the deltas themselves,
// so every later epoch keeps the product DAG alive:
//
//   * every intermediate count matrix survives in a persistent
//     ProductPlanCache, keyed by the same canonical expression signatures
//     the evaluator uses;
//   * a delta dirties exactly the step tokens of its touched relations
//     ("1:follow>", "2:checkin<", ...); a cached intermediate whose
//     signature mentions no dirty token is padded to the grown node
//     universes (new nodes have no edges yet, so padding with empty
//     rows/columns IS the recomputed product);
//   * a dirty intermediate is carried forward by its exact change since
//     the last epoch, P_now = P_prev + ΔP, never recomputed or spliced.
//     ΔP is a signed CSR matrix of P's current shape with its zeros
//     dropped, derived bottom-up through the DAG:
//       - a step's Δ diffs the rows NoteDelta() recorded against the
//         previous RelationContext, which Refresh() keeps alive until it
//         ends (a duplicate insertion, or a removal that leaves one copy
//         of a multi-edge, gives no Δ);
//       - a chain prefix P = L·R takes ΔL·R + L·ΔR − ΔL·ΔR over the
//         current L and R (SpGemmDelta), so no old operand is needed;
//       - a stack changes only in rows some branch changed: each is
//         re-intersected and diffed against the stack's last value, or
//         evaluated at its Δ entries alone, whichever reads fewer
//         entries (HadamardDelta);
//       - a face-split node (IsFaceSplit — Ψ2's co-timed ∘ co-located
//         post pairs) joins only the posts whose attribute rows changed
//         against the other side's posts (FaceSplitHadamardDelta);
//       - a node its reversal serves is the transpose of that Δ.
//     AddDelta then merges ΔP into last epoch's product, bulk-copying
//     every row without a Δ. Counts are integers below 2⁵³, so the sum
//     equals the recomputed product value for value, and dropping zeros
//     gives the structure SpGemm and Hadamard produce;
//   * a dirty diagram's proximity table carries its sums forward the same
//     way (ProximityScores::CarriedForward): last epoch's row and column
//     sums, padded, plus its root Δ's;
//   * a node with no product last epoch (one the evaluator never stored)
//     is computed in full by its kernel, and its Δ still comes from the
//     rules above;
//   * a diagram whose root signature survives migration is served without
//     touching a single kernel.
//
// The Δ kernels run serially on the calling thread; only full
// evaluations use FeatureExtractorOptions::pool, which the serve plane
// leaves unset.
//
// Counters (stats() and the "metadiagram.*" registry twins): every
// Refresh adds to both, an offline fold's epoch 0 included (one refresh,
// every column in diagrams_recomputed). diagrams_row_updated and
// intermediates_row_updated count the columns and cache entries served by
// a Δ; diagrams_recomputed the columns evaluated in full, which only
// epoch 0 does. The kernel layer's "linalg.spgemm.rows_spliced" counts
// product rows AddDelta copied unchanged and
// "linalg.spgemm.rows_recomputed" the rows it merged with a nonzero Δ —
// names kept from the row splice this engine replaced.
//
// A carried engine's Extract() is bitwise-identical to a fresh engine's
// epoch 0 over the current pair: padding adds empty rows, and every
// carried product is the exact sum above.
//
// The anchor bridge is the *fixed* labeled set L+ — ground-truth anchors
// revealed by a delta are oracle/evaluation data, not model input — so
// anchor matrices are rebuilt (cheap) but never dirty the cache.

#ifndef ACTIVEITER_METADIAGRAM_FEATURES_H_
#define ACTIVEITER_METADIAGRAM_FEATURES_H_

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/graph/aligned_pair.h"
#include "src/graph/incidence.h"
#include "src/linalg/matrix.h"
#include "src/metadiagram/meta_diagram.h"
#include "src/metadiagram/product_plan.h"
#include "src/metadiagram/proximity.h"
#include "src/metadiagram/relation_matrices.h"

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

/// Extracts proximity feature matrices from an aligned pair, bridging
/// through a given training anchor set, and keeps them current as the
/// pair changes.
class FeatureExtractor {
 public:
  /// Cumulative reuse accounting across Refresh() epochs. Per-instance;
  /// the same fields are also summed across all extractors as
  /// "metadiagram.*" counters on MetricsRegistry::Default().
  struct RefreshStats {
    size_t refreshes = 0;               // Refresh calls with pending work
    size_t diagrams_recomputed = 0;     // columns evaluated in full
    size_t diagrams_reused = 0;         // columns served from migration
    size_t diagrams_row_updated = 0;    // dirty columns carried by a Δ
    size_t intermediates_dropped = 0;   // cache entries lost to dirty tokens
    size_t intermediates_migrated = 0;  // cache entries padded and kept
    size_t intermediates_row_updated = 0;  // dirty entries carried by a Δ
  };

  /// `pair` must outlive the extractor and is observed through every
  /// mutation the caller applies; `train_anchors` is the fixed bridge L+.
  FeatureExtractor(const AlignedPair& pair,
                   std::vector<AnchorLink> train_anchors,
                   FeatureExtractorOptions options = {});

  /// Feature names in column order (bias excluded).
  const std::vector<std::string>& feature_names() const { return names_; }

  /// Marks the relations touched by `delta` dirty. Call after
  /// pair.ApplyDelta(delta); cheap — all recomputation happens in
  /// Refresh().
  void NoteDelta(const PairDelta& delta);

  /// Brings the engine up to date with every NoteDelta() since the last
  /// call: rebuilds the relation context, pads the clean cache entries,
  /// carries the dirty ones and their tables forward by their Δs (the
  /// first call evaluates everything in full). Returns the dirty feature
  /// column indices, ascending (empty when nothing was pending; all
  /// columns on the first call).
  std::vector<size_t> Refresh();

  /// |H| × (feature_names().size() + 1) feature matrix over the current
  /// graph state, in column order of feature_names() with the bias 1 last:
  /// the tables' Gather, densified. Runs Refresh() implicitly when it is
  /// pending (always on a fresh extractor).
  Matrix Extract(const CandidateLinkSet& candidates);

  /// The tables the last Refresh() published. Refresh() must be up to
  /// date; the returned tables stay valid (and unchanged) for as long as
  /// the caller holds them.
  std::shared_ptr<const ProximityTables> tables() const;

  const RefreshStats& stats() const { return stats_; }

 private:
  struct Shape {
    NodeType src_type;
    NetworkSide src_side;
    NodeType dst_type;
    NetworkSide dst_side;
  };

  void IndexShapes(const ExprPtr& node);
  size_t UniverseOf(NodeType type, NetworkSide side) const;
  /// True when `sig` mentions a relation a pending delta touched.
  bool Dirty(const std::string& sig) const;
  /// touched_rows_ of one relation step.
  std::vector<uint32_t>& TouchedRows(NetworkSide side, RelationType relation,
                                     bool forward);
  bool pending() const { return !initialised_ || pending_refresh_; }

  /// One node brought to this epoch: its count matrix and its exact
  /// change since the last epoch (nullptr: unchanged).
  struct Carried {
    std::shared_ptr<const SparseMatrix> now;
    std::shared_ptr<const SparseMatrix> delta;
  };

  /// Carries every dirty catalog root forward by its Δ over last epoch's
  /// cache, storing each node it resolves into cache_; returns the roots
  /// by signature. `old_ctx` is last epoch's context (the step Δs diff
  /// against it).
  std::unordered_map<std::string, Carried> CarryForward(
      const ProductPlanCache& old_cache, const RelationContext& old_ctx);

  /// Adds this Refresh's stats_ movement (vs the entry snapshot) to the
  /// process-wide "metadiagram.*" registry counters.
  void PublishRefreshStatsDelta(const RefreshStats& before);

  const AlignedPair* pair_;
  std::vector<AnchorLink> train_anchors_;
  FeatureExtractorOptions options_;
  std::vector<MetaDiagram> catalog_;
  std::vector<std::string> names_;

  /// Signatures the Δ pass looks up for one expression node, computed
  /// once: its reversal's and, for a chain, each prefix's (children 0..i,
  /// i ≥ 1) with the reversal of that prefix.
  struct NodePlan {
    std::string transposed;
    std::vector<std::string> prefixes;
    std::vector<std::string> reversed_prefixes;
  };

  // Signature → endpoint shape for every catalog sub-expression and chain
  // prefix (everything the evaluator can ever store); step signatures are
  // tracked separately because their cache entries alias the context.
  std::unordered_map<std::string, Shape> shape_of_sig_;
  std::unordered_set<std::string> step_sigs_;
  std::unordered_map<const DiagramNode*, NodePlan> plans_;

  std::unique_ptr<RelationContext> ctx_;
  std::unique_ptr<ProductPlanCache> cache_;
  std::shared_ptr<const ProximityTables> tables_;

  bool initialised_ = false;
  bool pending_refresh_ = false;
  std::unordered_set<std::string> dirty_tokens_;
  // Per side, relation and direction (TouchedRows()): the source rows of
  // that step's adjacency the pending deltas touched, unsorted and with
  // repeats (an edge (src, dst) touches row src of the forward matrix and
  // row dst of the backward one) — the rows a step's Δ diffs in Refresh();
  // cleared alongside dirty_tokens_.
  std::array<std::vector<uint32_t>, 4 * kNumRelationTypes> touched_rows_;
  RefreshStats stats_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_METADIAGRAM_FEATURES_H_
