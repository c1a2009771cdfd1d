// Method specifications and the per-fold experiment runner.
//
// The six comparison methods of Tables III/IV are declared as MethodSpecs;
// FoldRunner executes any spec on one fold, sharing the (expensive) feature
// extraction between methods that use the same feature set and one prepared
// AlignmentSession between PU methods that share a (feature set, c): the
// ridge system is factored once per fold per (feature set, c), however many
// methods and external rounds run against it.

#ifndef ACTIVEITER_EVAL_EXPERIMENT_H_
#define ACTIVEITER_EVAL_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/align/active_iter.h"
#include "src/align/iter_aligner.h"
#include "src/common/status.h"
#include "src/eval/protocol.h"
#include "src/learn/linear_svm.h"
#include "src/learn/metrics.h"
#include "src/metadiagram/features.h"

namespace activeiter {

/// Model families.
enum class MethodKind {
  kActiveIter,      // active PU model (strategy selectable)
  kIterMpmd,        // PU model without queries (Iter-MPMD)
  kSvm,             // supervised SVM baseline
};

/// One comparison method.
struct MethodSpec {
  std::string name;
  MethodKind kind = MethodKind::kIterMpmd;
  FeatureSet features = FeatureSet::kMetaPathAndDiagram;
  /// Adds the P7 Common Word extension (and its diagram stackings) to the
  /// feature set — not part of the paper's catalog; for ablations.
  bool include_word_path = false;
  /// Label-inference algorithm of the PU models (greedy is the paper's).
  SelectionAlgorithm selection = SelectionAlgorithm::kGreedy;
  // Active settings (kActiveIter only).
  size_t budget = 0;
  size_t batch_size = 5;
  QueryStrategyKind strategy = QueryStrategyKind::kConflict;
  double closeness_threshold = 0.05;
  double dominance_margin = 0.05;
  bool fill_with_near_misses = true;
  // Shared learner settings.
  double ridge_c = 1.0;
  double threshold = 0.0;  // sign(f) semantics: positive iff score > 0
  SvmOptions svm;
};

/// The paper's method suite: ActiveIter-100, ActiveIter-50,
/// ActiveIter-Rand-50, Iter-MPMD, SVM-MPMD, SVM-MP.
std::vector<MethodSpec> PaperMethodSuite();

/// Factory helpers.
MethodSpec ActiveIterSpec(size_t budget,
                          QueryStrategyKind strategy =
                              QueryStrategyKind::kConflict);
MethodSpec IterMpmdSpec();
MethodSpec SvmSpec(FeatureSet features);

/// Result of one (method, fold) run.
struct MethodOutcome {
  BinaryMetrics metrics;
  double seconds = 0.0;        // model time (features excluded)
  size_t queries_used = 0;
  std::vector<IterationTrace> traces;  // external rounds (PU methods)
};

/// Runs methods on one fold with shared feature caches.
class FoldRunner {
 public:
  /// `pair` must outlive the runner; `fold` is copied.
  /// `seed` drives the randomised parts (SVM shuffles, random queries).
  FoldRunner(const AlignedPair& pair, FoldData fold, uint64_t seed,
             ThreadPool* pool = nullptr);

  /// Executes a method; fails on invalid spec or degenerate data.
  Result<MethodOutcome> Run(const MethodSpec& spec);

  const FoldData& fold() const { return fold_; }

  /// Feature matrix over H for a set (cached after first use).
  const Matrix& FeaturesFor(FeatureSet set, bool include_word_path = false);

  /// Prepared session for a (feature set, word extension, ridge c); the
  /// factorisation is built on first use and shared by every later PU run
  /// with the same key. Sessions that differ only in c share one
  /// RidgePrepared per (feature set, word extension): the compressed X
  /// and its Gram are built once per fold per feature matrix, each c adds
  /// only its own O(d³) factorisation. Pins are whatever the last run
  /// left — callers reset them. Fails only on a singular ridge system.
  Result<AlignmentSession*> SessionFor(FeatureSet set, bool include_word_path,
                                       double c);

 private:
  Result<MethodOutcome> RunSvm(const MethodSpec& spec, const Matrix& x);
  Result<MethodOutcome> RunIter(const MethodSpec& spec);
  Result<MethodOutcome> RunActive(const MethodSpec& spec);

  std::vector<Pin> InitialPins() const;

  const AlignedPair* pair_;
  FoldData fold_;
  uint64_t seed_;
  ThreadPool* pool_;
  IncidenceIndex index_;
  // Cache slots indexed by (feature set, word extension).
  std::optional<Matrix> features_[2][2];
  // One compressed X and Gram per feature matrix, shared by every c (same
  // slots).
  std::shared_ptr<RidgePrepared> prepared_[2][2];
  // Prepared sessions keyed by (feature slot, word slot, c). unique_ptr
  // keeps session addresses stable while the vector grows.
  struct SessionEntry {
    int set_slot;
    int word_slot;
    double c;
    std::unique_ptr<AlignmentSession> session;
  };
  std::vector<SessionEntry> sessions_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_EVAL_EXPERIMENT_H_
