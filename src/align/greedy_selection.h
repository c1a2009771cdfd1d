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
/// returns the {0,+1} label vector of the sorted scan above, which visits
/// equal scores (−0.0 and +0.0 included) by increasing link id.
///
/// The scan itself is not run. Users of network 1 propose to users of
/// network 2 instead (deferred acceptance, after the Suitor algorithm):
///   1. pinned positives take both their endpoints;
///   2. each user of network 1 with an eligible link (free, score above
///      the threshold) proposes, in descending order of its best eligible
///      link, along its best link whose network-2 user is free or holds a
///      later link in the scan order;
///   3. the user it displaces proposes again;
///   4. the labels are the pins plus the links held at the end.
/// Both sides rank links by one strict order (score descending, link id
/// ascending), under which the stable matching is unique. The scan's
/// matching is stable (each eligible link it skips has an endpoint taken
/// by an earlier link), and so is the one deferred acceptance ends in:
/// the two are the same.
///
/// Cost: one pass over the per-user link lists, a sort of the proposers
/// (at most |U1|), and a rescan of u's list, O(deg(u)), each time user u
/// is refused or dropped. Every rescan moves u to a later link, so the
/// worst case is O(Σᵤ deg(u)²). On the paper's offline workload a call
/// visits about 1.4 links per candidate link.
///
/// A link tombstoned by IncidenceIndex::RemoveCandidates but not yet
/// compacted is never selected, pinned or not, and takes no endpoint: the
/// selection reads the per-user link lists, which hold no tombstones.
Vector GreedySelect(const Vector& scores, const IncidenceIndex& index,
                    const std::vector<Pin>& pinned, double threshold);

}  // namespace activeiter

#endif  // ACTIVEITER_ALIGN_GREEDY_SELECTION_H_
