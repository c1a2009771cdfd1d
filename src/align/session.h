// The stateful session layer of the learn→align→eval stack.
//
// The paper's external loop (§III-D) alternates ridge fits and label
// inference over a *fixed* design matrix X: between external ActiveIter
// rounds only the pin state changes. AlignmentSession splits those two
// lifetimes apart:
//
//   problem-invariant — the factored ridge system (X's stored entries
//     compressed by rows and by columns, the Gram product and the per-c
//     Cholesky, built exactly once by Prepare()) and the incidence index
//     view;
//   per-round — the pin state (L+ plus queried labels), cheap to mutate
//     or reset between runs.
//
// A full ActiveIter run (budget 100, batch 5 → 21 rounds) against one
// session performs exactly one Gram/Cholesky factorisation instead of one
// per round, with bitwise-identical results; FoldRunner shares one session
// per (feature set, c) across all PU methods of a fold.
//
// Every inner step of the alternation costs O(nnz(X)) in the solver, not
// O(|H|·d): Xᵀy walks the stored entries of the labelled rows and Xw the
// column copy (ridge.h states the costs and why the results stay bitwise
// the dense loops' for finite labels and weights). The session keeps no
// view of the dense X, which may be destroyed once Create returns.

#ifndef ACTIVEITER_ALIGN_SESSION_H_
#define ACTIVEITER_ALIGN_SESSION_H_

#include <memory>
#include <vector>

#include "src/align/greedy_selection.h"
#include "src/common/status.h"
#include "src/graph/incidence.h"
#include "src/learn/ridge.h"

namespace activeiter {

class ThreadPool;

/// Prepared solver state plus mutable pin state for one alignment run (or
/// a sequence of runs over the same X and c). `index` must outlive the
/// session (it is borrowed); the compressed X and the pin state are owned.
class AlignmentSession {
 public:
  /// Builds the session from a dense X: RidgePrepared's dense entry (X
  /// compressed by rows over `pool` when given, identical to serial, and
  /// by columns; one Gram product), then one Cholesky factorisation of
  /// I + cXᵀX. Pins start kFree.
  static Result<AlignmentSession> Create(const Matrix& x,
                                         const IncidenceIndex& index,
                                         double c,
                                         ThreadPool* pool = nullptr);

  /// Derives a session from an existing prepared Gram: one Cholesky
  /// factorisation, zero passes over X (e.g. a fold's sessions that differ
  /// only in c share one compressed X and one Gram). A serve shard derives
  /// its session here from its CSR X once per drain, so a served model is
  /// always exactly what a fresh build forms.
  static Result<AlignmentSession> CreateFromPrepared(
      std::shared_ptr<RidgePrepared> prepared, const IncidenceIndex& index,
      double c);

  // --- problem-invariant state ---
  const IncidenceIndex& index() const { return *index_; }
  double c() const { return solver_.c(); }
  /// The factored ridge system (shared by every round).
  const RidgeSolver& solver() const { return solver_; }
  /// The factor-once Gram state (derive solvers for other c from it).
  const RidgePrepared& prepared() const { return *prepared_; }
  /// The shareable prepared state (pass to CreateFromPrepared to derive a
  /// sibling session with a different c from the same Gram).
  const std::shared_ptr<RidgePrepared>& shared_prepared() const {
    return prepared_;
  }
  /// |H|: number of candidate links.
  size_t size() const { return solver_.num_rows(); }

  // --- per-round state ---
  const std::vector<Pin>& pinned() const { return pinned_; }
  /// Replaces the whole pin state (|H| entries; checked).
  void ResetPins(std::vector<Pin> pinned);
  /// Pins one link (query answers during the active loop).
  void SetPin(size_t link_id, Pin pin);

 private:
  AlignmentSession(const IncidenceIndex* index,
                   std::shared_ptr<RidgePrepared> prepared,
                   RidgeSolver solver)
      : index_(index),
        prepared_(std::move(prepared)),
        solver_(std::move(solver)),
        pinned_(solver_.num_rows(), Pin::kFree) {}

  const IncidenceIndex* index_;
  std::shared_ptr<RidgePrepared> prepared_;  // shared across same-Gram peers
  RidgeSolver solver_;
  std::vector<Pin> pinned_;
};

/// The shared inputs of one alignment run: features X over the candidate
/// set H, its incidence index, and the pin state (labeled positives L+,
/// plus queried labels when running inside ActiveIter).
struct AlignmentProblem {
  const Matrix* x = nullptr;            // |H| × d, bias column included
  const IncidenceIndex* index = nullptr;
  std::vector<Pin> pinned;              // |H| entries

  /// Validates sizes and pointer presence.
  Status Validate() const;

  /// Builds a session for ridge weight `c` seeded with this problem's pin
  /// state. The problem's `index` must outlive the session; `x` is read
  /// only during this call.
  Result<AlignmentSession> Prepare(double c,
                                   ThreadPool* pool = nullptr) const;
};

}  // namespace activeiter

#endif  // ACTIVEITER_ALIGN_SESSION_H_
