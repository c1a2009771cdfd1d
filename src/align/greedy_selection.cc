#include "src/align/greedy_selection.h"

#include <algorithm>

namespace activeiter {

Vector GreedySelect(const Vector& scores, const IncidenceIndex& index,
                    const std::vector<Pin>& pinned, double threshold) {
  return GreedySelectWithCapacity(scores, index, pinned, threshold, 1, 1);
}

Vector GreedySelectWithCapacity(const Vector& scores,
                                const IncidenceIndex& index,
                                const std::vector<Pin>& pinned,
                                double threshold, size_t capacity_first,
                                size_t capacity_second) {
  const size_t n = scores.size();
  ACTIVEITER_CHECK_MSG(pinned.size() == n, "pin vector size mismatch");
  ACTIVEITER_CHECK_MSG(index.candidate_count() == n,
                       "incidence index size mismatch");
  ACTIVEITER_CHECK_MSG(capacity_first >= 1 && capacity_second >= 1,
                       "capacities must be >= 1");
  const CandidateLinkSet& candidates = index.candidates();

  Vector y(n);
  std::vector<size_t> used_first(index.users_first(), 0);
  std::vector<size_t> used_second(index.users_second(), 0);

  // Pass 1: pinned positives consume capacity unconditionally (their
  // labels are ground truth; the caller guarantees they respect the
  // cardinality constraint because true anchors do).
  for (size_t id = 0; id < n; ++id) {
    if (pinned[id] == Pin::kPositive) {
      y(id) = 1.0;
      const auto& [u1, u2] = candidates.link(id);
      ++used_first[u1];
      ++used_second[u2];
    }
  }

  // Pass 2: free links in decreasing score order; accept while above the
  // threshold and capacity remains. Ties broken by link id for
  // determinism: records enter in id order and the sort is stable.
  struct Ranked {
    double score;
    size_t id;
  };
  std::vector<Ranked> order;
  order.reserve(n);
  const double* score = scores.data();
  for (size_t id = 0; id < n; ++id) {
    if (pinned[id] == Pin::kFree && score[id] > threshold) {
      order.push_back({score[id], id});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Ranked& a, const Ranked& b) {
                     return a.score > b.score;
                   });
  const auto& links = candidates.links();
  for (const Ranked& ranked : order) {
    const auto& [u1, u2] = links[ranked.id];
    if (used_first[u1] >= capacity_first ||
        used_second[u2] >= capacity_second) {
      continue;
    }
    y(ranked.id) = 1.0;
    ++used_first[u1];
    ++used_second[u2];
  }
  return y;
}

}  // namespace activeiter
