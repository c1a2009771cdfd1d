// The PU iterative alignment core (external iteration step 1 of §III-D):
// alternate
//   (1-1) w = c (I + cXᵀX)⁻¹ Xᵀ y          (ridge, labels fixed)
//   (1-2) y = GreedySelect(Xw)             (labels, model fixed)
// until the label vector stops changing. Running this once with no query
// budget is exactly the Iter-MPMD baseline; ActiveIter wraps it with the
// active query loop.
//
// The alternation runs against an AlignmentSession (see session.h), so the
// ridge system is factored once per session rather than once per call; the
// problem-level Align() overload prepares a throwaway session internally.

#ifndef ACTIVEITER_ALIGN_ITER_ALIGNER_H_
#define ACTIVEITER_ALIGN_ITER_ALIGNER_H_

#include <vector>

#include "src/align/greedy_selection.h"
#include "src/align/session.h"
#include "src/common/status.h"
#include "src/graph/incidence.h"
#include "src/learn/ridge.h"

namespace activeiter {

/// How internal step 1-2 solves the constrained label inference.
enum class SelectionAlgorithm {
  kGreedy,     // the paper's ½-approximation from WSDM'17 [21]
  kHungarian,  // exact max-weight matching (ablation)
};

/// Options of the internal alternation.
struct IterAlignerOptions {
  /// Ridge loss weight c (> 0).
  double c = 1.0;
  /// Score threshold a free link must strictly exceed to be selected
  /// positive. 0 matches the paper's sign(f(x)) ∈ {+1, 0} semantics.
  double threshold = 0.0;
  /// Cap on the internal alternation (the paper observes convergence in
  /// < 5 iterations; the cap only guards pathological inputs). Must be
  /// > 0: Align() rejects 0, which would leave no scores and no model.
  size_t max_iterations = 50;
  /// Label-inference algorithm (greedy is the paper's choice).
  SelectionAlgorithm selection = SelectionAlgorithm::kGreedy;
};

/// Per-iteration Δy = ‖yᵢ − yᵢ₋₁‖₁ trace (the series of Figure 3).
struct IterationTrace {
  std::vector<double> delta_y;
  bool converged = false;
  size_t iterations() const { return delta_y.size(); }
};

/// Result of one alternation run.
struct AlignmentResult {
  Vector y;       // inferred {0,+1} labels over H
  Vector scores;  // final ŷ = Xw
  Vector w;       // final model weights
  IterationTrace trace;
};

/// Runs the alternating optimisation (Iter-MPMD when pinned holds only L+).
class IterAligner {
 public:
  explicit IterAligner(IterAlignerOptions options = {})
      : options_(options) {}

  /// Solves the problem with a session prepared on the spot (one
  /// factorisation per call, the pre-session behaviour). Fails on invalid
  /// inputs or a singular ridge system (impossible for c > 0 but surfaced
  /// rather than swallowed).
  Result<AlignmentResult> Align(const AlignmentProblem& problem) const;

  /// Runs the alternation against a prepared session (no factorisation;
  /// the session's pins seed the labels). session.c() must equal
  /// options().c.
  Result<AlignmentResult> Align(const AlignmentSession& session) const;

  const IterAlignerOptions& options() const { return options_; }

 private:
  IterAlignerOptions options_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_ALIGN_ITER_ALIGNER_H_
