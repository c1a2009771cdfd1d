#include "src/align/greedy_selection.h"

#include <array>
#include <cstring>
#include <utility>

namespace activeiter {
namespace {

/// A free link in the order the greedy scan visits it.
struct Ranked {
  uint64_t key;  // DescendingKey(score)
  size_t id;
};

/// A key whose unsigned order is `score`'s descending numeric order. −0.0
/// folds into +0.0 because the two compare equal; then a non-negative
/// score's IEEE bits get the sign bit set and a negative score's bits are
/// complemented (unsigned order = numeric order), and the result is
/// complemented (descending).
uint64_t DescendingKey(double score) {
  if (score == 0.0) score = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &score, sizeof(bits));
  const uint64_t ascending = bits >> 63 ? ~bits : bits | (uint64_t{1} << 63);
  return ~ascending;
}

/// Stable LSD radix sort by key, one byte per pass. A pass whose byte is
/// the same in every key would move nothing and is skipped.
void RadixSortByKey(std::vector<Ranked>* records) {
  constexpr size_t kPasses = sizeof(uint64_t);
  const size_t n = records->size();
  if (n < 2) return;
  std::array<std::array<size_t, 256>, kPasses> counts{};
  for (const Ranked& r : *records) {
    for (size_t pass = 0; pass < kPasses; ++pass) {
      ++counts[pass][(r.key >> (8 * pass)) & 0xff];
    }
  }
  std::vector<Ranked> scratch(n);
  for (size_t pass = 0; pass < kPasses; ++pass) {
    const size_t shift = 8 * pass;
    std::array<size_t, 256>& offsets = counts[pass];
    if (offsets[((*records)[0].key >> shift) & 0xff] == n) continue;
    size_t total = 0;
    for (size_t& slot : offsets) total += std::exchange(slot, total);
    for (const Ranked& r : *records) {
      scratch[offsets[(r.key >> shift) & 0xff]++] = r;
    }
    records->swap(scratch);
  }
}

}  // namespace

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
  // determinism: records enter in id order and the radix sort is stable,
  // so the scan order is that of a stable comparison sort, in O(|H|).
  std::vector<Ranked> order;
  order.reserve(n);
  const double* score = scores.data();
  for (size_t id = 0; id < n; ++id) {
    if (pinned[id] == Pin::kFree && score[id] > threshold) {
      order.push_back({DescendingKey(score[id]), id});
    }
  }
  RadixSortByKey(&order);
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
