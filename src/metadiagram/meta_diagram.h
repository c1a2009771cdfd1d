// Inter-network meta diagrams (Definition 5) as an expression algebra.
//
// A meta diagram is a DAG of typed relation steps between the user types of
// the two networks. Rather than matching subgraph instances explicitly
// (graph isomorphism), the engine represents diagrams as expressions over
// three combinators whose count matrices compose algebraically:
//
//   * Step(s)            — one relation segment; count = adjacency matrix.
//   * Chain(e1, .., ek)  — concatenation; count = product of child counts.
//   * Parallel(e1,..,ek) — stacking of branches that share ONLY their two
//                          endpoint slots; every combination of one instance
//                          per branch is a diagram instance, so the count is
//                          the elementwise (Hadamard) product.
//
// Stacking on shared intermediate nodes (e.g. Ψ1's mutual follows around a
// common anchored pair, or Ψ2's two attribute branches out of the same post
// pair) is expressed by pushing Parallel inside a Chain:
//   Ψ1 = Chain(Parallel(F1>, F1<), anchor, Parallel(F2<, F2>))
//   Ψ2 = Chain(write1>, Parallel(Chain(at1>, at2<), Chain(ci1>, ci2<)),
//              write2<)
//   Ψ3 = Parallel(P1, Ψ2)                      (endpoint-only stacking)
//
// Ψ2's middle is evaluated without either branch product (IsFaceSplit),
// and the catalog builds each attribute path U–P–A–P–U as
// Chain(Chain(U→P, P→A), Chain(A→P, P→U)), so no post-indexed
// intermediate wider than the posts themselves is ever formed.
//
// Hadamard products implement the Lemma 1/2 covering-set pruning
// intrinsically: an entry of a Parallel is nonzero only where every branch
// (hence every covering meta path) is nonzero.

#ifndef ACTIVEITER_METADIAGRAM_META_DIAGRAM_H_
#define ACTIVEITER_METADIAGRAM_META_DIAGRAM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/metadiagram/meta_path.h"
#include "src/metadiagram/product_plan.h"
#include "src/metadiagram/relation_matrices.h"

namespace activeiter {
class ThreadPool;
}

namespace activeiter {

/// One node of a diagram expression tree. Immutable once built; share
/// freely via ExprPtr.
class DiagramNode {
 public:
  enum class Kind { kStep, kChain, kParallel };

  Kind kind() const { return kind_; }
  const StepRef& step() const { return step_; }
  const std::vector<std::shared_ptr<const DiagramNode>>& children() const {
    return children_;
  }

  NodeType source_type() const { return source_type_; }
  NodeType target_type() const { return target_type_; }
  NetworkSide source_side() const { return source_side_; }
  NetworkSide target_side() const { return target_side_; }

  /// Canonical signature; structurally equal expressions share it, and the
  /// evaluator memoises on it.
  const std::string& signature() const { return signature_; }

 private:
  friend class DiagramBuilder;
  DiagramNode() = default;

  Kind kind_ = Kind::kStep;
  StepRef step_;
  std::vector<std::shared_ptr<const DiagramNode>> children_;
  NodeType source_type_ = NodeType::kUser;
  NodeType target_type_ = NodeType::kUser;
  NetworkSide source_side_ = NetworkSide::kFirst;
  NetworkSide target_side_ = NetworkSide::kSecond;
  std::string signature_;
};

using ExprPtr = std::shared_ptr<const DiagramNode>;

/// Validating factory for diagram expressions.
class DiagramBuilder {
 public:
  /// A single relation step.
  static ExprPtr Step(const StepRef& step);

  /// Concatenation; children must compose end-to-end (attribute-type
  /// junctions are shared across networks and waive the side check).
  static Result<ExprPtr> Chain(std::vector<ExprPtr> children);

  /// Endpoint-sharing branches; all children must have identical source and
  /// target (type, side).
  static Result<ExprPtr> Parallel(std::vector<ExprPtr> children);

  /// Wraps a MetaPath as a Chain of its steps.
  static ExprPtr FromMetaPath(const MetaPath& path);
};

/// A named meta diagram: id + semantics + validated expression whose
/// endpoints are U(1) and U(2) (Definition 5's source/sink constraint).
class MetaDiagram {
 public:
  /// Validates the inter-network endpoint condition.
  static Result<MetaDiagram> Create(std::string id, std::string semantics,
                                    ExprPtr root);

  /// Wraps a meta path (a path is a special diagram; the paper "misuses"
  /// meta diagram for both).
  static MetaDiagram FromMetaPath(const MetaPath& path);

  const std::string& id() const { return id_; }
  const std::string& semantics() const { return semantics_; }
  const ExprPtr& root() const { return root_; }
  std::string Signature() const { return root_->signature(); }

 private:
  MetaDiagram(std::string id, std::string semantics, ExprPtr root)
      : id_(std::move(id)),
        semantics_(std::move(semantics)),
        root_(std::move(root)) {}

  std::string id_;
  std::string semantics_;
  ExprPtr root_;
};

/// Signature of the transposed expression: steps flip direction, chains
/// reverse, parallels stay (sorted). The evaluator uses it to serve a
/// chain from the cached product of its reversal via one Transpose.
std::string TransposedSignature(const DiagramNode& node);

/// True for a Parallel whose branches are all two-step chains Xᵢ·Yᵢ through
/// a shared attribute type — Ψ2's post-pair middle. The evaluator computes
/// such a node with FaceSplitHadamard over the branches' Xᵢ and Yᵢ and never
/// forms a branch product: O(posts), where the branch products are
/// post × post.
bool IsFaceSplit(const DiagramNode& node);

/// Evaluation knobs. The sharing flags exist so tests/benches can compare
/// the factored engine against plain per-diagram evaluation.
struct EvaluatorOptions {
  /// Pool for the sparse kernels; nullptr = serial.
  ThreadPool* pool = nullptr;
  /// When set, intermediates are stored in this externally owned cache
  /// instead of an evaluator-private one. The delta-aware feature engine
  /// keeps one cache alive across graph epochs (seeded with the surviving
  /// intermediates) and hands it to a fresh evaluator per epoch. Must
  /// outlive the evaluator.
  ProductPlanCache* shared_cache = nullptr;
  /// Cache every chain prefix product, not only whole sub-expressions.
  bool share_chain_prefixes = true;
  /// Serve a chain whose reversal is cached with a single transpose.
  /// Bitwise equality with the uncached path assumes count matrices hold
  /// positive, exactly-representable integers (< 2^53): the reversal is
  /// computed in the opposite association, which FP non-associativity
  /// would expose on non-integer inputs (e.g. pre-normalised adjacencies).
  /// The same precondition makes every association of a chain, and the
  /// face-split evaluation of IsFaceSplit nodes (always on), produce the
  /// same values and the same nonzero structure.
  bool share_transposes = true;
};

/// Evaluates diagram expressions against a RelationContext on top of a
/// ProductPlanCache: sub-diagrams shared between features (e.g. Ψ2 inside
/// every Ψf,a² and Ψf²,a² diagram), chain prefixes shared between paths,
/// and reversed chains are all computed once — the reuse rule the paper
/// derives from Lemma 2. Thread-safe.
class DiagramEvaluator {
 public:
  /// `ctx` must outlive the evaluator.
  explicit DiagramEvaluator(const RelationContext* ctx,
                            EvaluatorOptions options = {});

  // cache_ may point at the evaluator's own owned_cache_, so a default
  // copy/move would leave it dangling or aliasing the source.
  DiagramEvaluator(const DiagramEvaluator&) = delete;
  DiagramEvaluator& operator=(const DiagramEvaluator&) = delete;

  /// Count matrix of the expression (memoised). The returned pointer may
  /// alias storage owned by the RelationContext (step matrices are not
  /// copied), so it is valid only while `ctx` lives — do not retain it
  /// past the context.
  std::shared_ptr<const SparseMatrix> Evaluate(const ExprPtr& node);

  /// Count matrix of a whole diagram.
  std::shared_ptr<const SparseMatrix> Evaluate(const MetaDiagram& diagram) {
    return Evaluate(diagram.root());
  }

  /// Number of distinct intermediates materialised so far (cache size).
  size_t cache_size() const { return cache_->size(); }

  /// Reuse accounting of the underlying plan cache.
  ProductPlanCache::Stats cache_stats() const { return cache_->stats(); }

 private:
  std::shared_ptr<const SparseMatrix> EvaluateChain(const DiagramNode& node);
  std::shared_ptr<const SparseMatrix> EvaluateFaceSplit(
      const DiagramNode& node);

  const RelationContext* ctx_;
  EvaluatorOptions options_;
  ProductPlanCache owned_cache_;
  ProductPlanCache* cache_;  // owned_cache_ or options_.shared_cache
};

}  // namespace activeiter

#endif  // ACTIVEITER_METADIAGRAM_META_DIAGRAM_H_
