// Greedy cardinality-constrained link selection (the WSDM'17 [21]
// ½-approximation the paper adopts for internal step 1-2).
//
// Given continuous scores ŷ over the candidate links, infer binary labels
// y ∈ {0,+1}^{|H|} maximising agreement with the scores subject to the
// one-to-one constraint 0 ≤ A(1)y ≤ 1, 0 ≤ A(2)y ≤ 1: process links in
// decreasing score order and accept a link iff its score strictly exceeds
// the decision threshold and neither endpoint is saturated. The paper's
// generative label is sign(f(x)) ∈ {+1, 0} — positive iff the score is
// strictly positive — so the canonical threshold is 0.
//
// Some links may be *pinned*: labeled positives (L+ and positively queried
// links) are forced to 1 and saturate their endpoints first; negatively
// queried links are forced to 0.

#ifndef ACTIVEITER_ALIGN_GREEDY_SELECTION_H_
#define ACTIVEITER_ALIGN_GREEDY_SELECTION_H_

#include <cstdint>
#include <vector>

#include "src/graph/incidence.h"
#include "src/linalg/vector.h"

namespace activeiter {

/// Pin state of a candidate link during inference.
enum class Pin : int8_t {
  kFree = -1,      // label inferred
  kNegative = 0,   // forced 0 (queried negative)
  kPositive = 1,   // forced 1 (labeled/queried positive)
};

/// Runs the greedy selection. `scores` and `pinned` are indexed by link id;
/// returns the {0,+1} label vector. Deterministic: links are visited by
/// decreasing score, equal scores (−0.0 and +0.0 included) by increasing
/// link id. A stable radix sort yields that order in O(|H|).
Vector GreedySelect(const Vector& scores, const IncidenceIndex& index,
                    const std::vector<Pin>& pinned, double threshold);

/// Generalised cardinality constraint (the full model of [21]): each user
/// of network 1 may be incident to at most `capacity_first` positive links
/// and each user of network 2 to at most `capacity_second`. Capacities of
/// (1, 1) recover GreedySelect. Pinned positives consume capacity first.
/// Both capacities must be >= 1 (checked).
Vector GreedySelectWithCapacity(const Vector& scores,
                                const IncidenceIndex& index,
                                const std::vector<Pin>& pinned,
                                double threshold, size_t capacity_first,
                                size_t capacity_second);

}  // namespace activeiter

#endif  // ACTIVEITER_ALIGN_GREEDY_SELECTION_H_
