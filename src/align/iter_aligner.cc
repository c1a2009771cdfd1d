#include "src/align/iter_aligner.h"

#include "src/align/hungarian.h"

namespace activeiter {
namespace {

Status ValidateOptions(const IterAlignerOptions& options) {
  if (options.c <= 0.0) {
    return Status::InvalidArgument("IterAlignerOptions.c must be > 0");
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument(
        "IterAlignerOptions.max_iterations must be > 0");
  }
  return Status::OK();
}

}  // namespace

Result<AlignmentResult> IterAligner::Align(
    const AlignmentProblem& problem) const {
  ACTIVEITER_RETURN_IF_ERROR(ValidateOptions(options_));
  auto session = problem.Prepare(options_.c);
  if (!session.ok()) return session.status();
  return Align(session.value());
}

Result<AlignmentResult> IterAligner::Align(
    const AlignmentSession& session) const {
  ACTIVEITER_RETURN_IF_ERROR(ValidateOptions(options_));
  if (session.c() != options_.c) {
    return Status::InvalidArgument(
        "session was prepared for a different ridge weight c");
  }
  const RidgeSolver& solver = session.solver();
  const std::vector<Pin>& pinned = session.pinned();
  const size_t n = session.size();

  // Initial labels: pinned values, free links 0.
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    y(i) = pinned[i] == Pin::kPositive ? 1.0 : 0.0;
  }

  AlignmentResult result;
  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    // (1-1) fit w against the current labels.
    Vector w = solver.Solve(y);
    // (1-2) infer labels under the cardinality constraint.
    Vector scores = solver.Predict(w);
    Vector y_next =
        options_.selection == SelectionAlgorithm::kGreedy
            ? GreedySelect(scores, session.index(), pinned,
                           options_.threshold)
            : HungarianSelect(scores, session.index(), pinned,
                              options_.threshold);
    // Queried negatives stay 0 and pinned positives stay 1 by construction
    // of GreedySelect; measure label movement. The labels are {0, 1}, so
    // ‖y_next − y‖₁ is the number of flipped labels.
    size_t flips = 0;
    for (size_t i = 0; i < n; ++i) flips += y_next.data()[i] != y.data()[i];
    const double delta = static_cast<double>(flips);
    result.trace.delta_y.push_back(delta);
    y = std::move(y_next);
    result.w = std::move(w);
    result.scores = std::move(scores);
    if (delta == 0.0) {
      result.trace.converged = true;
      break;
    }
  }
  result.y = std::move(y);
  return result;
}

}  // namespace activeiter
