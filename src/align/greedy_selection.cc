#include "src/align/greedy_selection.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace activeiter {
namespace {

constexpr size_t kNoLink = static_cast<size_t>(-1);

/// A link with its score.
struct Offer {
  double score;
  size_t link;
};

/// No offer. Every eligible link precedes it: an eligible score exceeds
/// the threshold, so it is above −inf.
constexpr Offer kNoOffer{-std::numeric_limits<double>::infinity(), kNoLink};

/// True iff `a` comes before `b` in the sorted scan's order: score
/// descending (−0.0 == +0.0), then link id ascending. Every comparison
/// with a NaN score is false, so an offer whose score is NaN is never
/// preceded.
bool Precedes(const Offer& a, const Offer& b) {
  return a.score > b.score || (a.score == b.score && a.link < b.link);
}

}  // namespace

Vector GreedySelect(const Vector& scores, const IncidenceIndex& index,
                    const std::vector<Pin>& pinned, double threshold) {
  const size_t n = scores.size();
  ACTIVEITER_CHECK_MSG(pinned.size() == n, "pin vector size mismatch");
  ACTIVEITER_CHECK_MSG(index.candidate_count() == n,
                       "incidence index size mismatch");
  const auto& links = index.candidates().links();
  const double* score = scores.data();
  Vector y(n);

  // The offer each user of network 2 holds, kNoOffer while it has none. A
  // pinned positive's endpoint holds NaN, which no offer beats.
  std::vector<Offer> held(index.users_second(), kNoOffer);
  const Offer pinned_hold{std::numeric_limits<double>::quiet_NaN(), kNoLink};

  // One pass over the first side: pinned positives are labeled and take
  // both endpoints; every other user with an eligible link (free, score
  // above the threshold) becomes a proposer, opening with its best one.
  std::vector<std::pair<Offer, NodeId>> proposers;
  for (NodeId u = 0; u < index.users_first(); ++u) {
    bool user_pinned = false;
    Offer best = kNoOffer;
    for (size_t l : index.LinksOfFirst(u)) {
      if (pinned[l] == Pin::kPositive) {
        y(l) = 1.0;
        held[links[l].second] = pinned_hold;
        user_pinned = true;
      } else if (pinned[l] == Pin::kFree && score[l] > threshold) {
        const Offer offer{score[l], l};
        if (Precedes(offer, best)) best = offer;
      }
    }
    if (!user_pinned && best.link != kNoLink) proposers.push_back({best, u});
  }
  std::sort(proposers.begin(), proposers.end(),
            [](const auto& a, const auto& b) {
              return Precedes(a.first, b.first);
            });

  // u's best eligible link after `after` whose second-side user would
  // accept it. Links before `after` need no look: each was refused, or
  // ineligible, when u chose `after`, and holds only improve.
  auto next_offer = [&](NodeId u, const Offer& after) {
    Offer best = kNoOffer;
    for (size_t l : index.LinksOfFirst(u)) {
      const Offer offer{score[l], l};
      if (Precedes(after, offer) && offer.score > threshold &&
          pinned[l] == Pin::kFree &&
          Precedes(offer, held[links[l].second]) && Precedes(offer, best)) {
        best = offer;
      }
    }
    return best;
  };

  // Deferred acceptance: a user of network 2 keeps the best offer it has
  // seen, and the user it drops proposes again at once.
  for (auto [offer, u] : proposers) {
    while (offer.link != kNoLink) {
      Offer& hold = held[links[offer.link].second];
      if (Precedes(offer, hold)) {
        const Offer dropped = std::exchange(hold, offer);
        if (dropped.link == kNoLink) break;
        u = links[dropped.link].first;
        offer = dropped;
      }
      offer = next_offer(u, offer);
    }
  }
  for (const Offer& hold : held) {
    if (hold.link != kNoLink) y(hold.link) = 1.0;
  }
  return y;
}

}  // namespace activeiter
