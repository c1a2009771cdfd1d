// SVM baselines (SVM-MP and SVM-MPMD): a classic supervised classifier
// trained on the labeled fold, predicting each test link independently —
// no PU learning, no cardinality constraint, no queries. Feature choice
// (meta paths only vs meta paths + diagrams) is the caller's: the
// FeatureSet of the X it builds the datasets from (FoldRunner::FeaturesFor).

#ifndef ACTIVEITER_ALIGN_SVM_ALIGNER_H_
#define ACTIVEITER_ALIGN_SVM_ALIGNER_H_

#include "src/common/status.h"
#include "src/learn/dataset.h"
#include "src/learn/linear_svm.h"

namespace activeiter {

/// Thin wrapper running the SVM baseline: train on `train`, return {0,+1}
/// predictions for every row of `test_features`.
class SvmAligner {
 public:
  explicit SvmAligner(SvmOptions options = {}) : options_(options) {}

  /// Fails if the training set is empty or single-class in a way that
  /// prevents training (zero positives is allowed — matches the paper's
  /// degenerate SVM-MP rows — and yields the all-negative predictor).
  Result<Vector> Run(const Dataset& train, const Matrix& test_features) const;

  const SvmOptions& options() const { return options_; }

 private:
  SvmOptions options_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_ALIGN_SVM_ALIGNER_H_
