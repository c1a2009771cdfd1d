#include "src/align/query_strategy.h"

#include <algorithm>
#include <cmath>

namespace activeiter {
namespace {

void ValidateContext(const QueryContext& ctx) {
  ACTIVEITER_CHECK(ctx.scores != nullptr && ctx.y != nullptr &&
                   ctx.index != nullptr && ctx.pinned != nullptr);
  size_t n = ctx.scores->size();
  ACTIVEITER_CHECK(ctx.y->size() == n && ctx.pinned->size() == n &&
                   ctx.index->candidate_count() == n);
}

/// The U+ links (free, y ≥ 0.5) at each user of one network, as flat
/// runs links[begin[u] .. begin[u + 1]) in the index's list order. The
/// index's per-user lists never hold a tombstoned link.
struct PositivesByUser {
  std::vector<size_t> begin;
  std::vector<size_t> links;
};

PositivesByUser GatherPositives(const IncidenceIndex& index, bool first_side,
                                const std::vector<Pin>& pinned,
                                const double* y) {
  const size_t users =
      first_side ? index.users_first() : index.users_second();
  PositivesByUser out;
  out.begin.reserve(users + 1);
  for (size_t u = 0; u < users; ++u) {
    out.begin.push_back(out.links.size());
    const NodeId user = static_cast<NodeId>(u);
    for (size_t l : first_side ? index.LinksOfFirst(user)
                               : index.LinksOfSecond(user)) {
      if (pinned[l] == Pin::kFree && y[l] >= 0.5) out.links.push_back(l);
    }
  }
  out.begin.push_back(out.links.size());
  return out;
}

/// The k links with the smallest keys among those offered, ties going to
/// the smaller link id: the first k of a stable sort by key over links in
/// id order. A max-heap of at most k entries finds them in O(m log k) for
/// m offers, without storing the rest.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}

  void Offer(double key, size_t link) {
    const Entry entry{key, link};
    if (heap_.size() < k_) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end(), Before);
    } else if (k_ > 0 && Before(entry, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Before);
      heap_.back() = entry;
      std::push_heap(heap_.begin(), heap_.end(), Before);
    }
  }

  /// Appends the held links to `out`, best first, while it holds < limit.
  /// Call once, after the last Offer: it sorts the heap in place.
  void AppendTo(size_t limit, std::vector<size_t>* out) {
    std::sort_heap(heap_.begin(), heap_.end(), Before);
    for (size_t i = 0; i < heap_.size() && out->size() < limit; ++i) {
      out->push_back(heap_[i].link);
    }
  }

 private:
  struct Entry {
    double key;
    size_t link;
  };
  static bool Before(const Entry& a, const Entry& b) {
    return a.key < b.key || (a.key == b.key && a.link < b.link);
  }

  size_t k_;
  std::vector<Entry> heap_;
};

}  // namespace

std::vector<size_t> ConflictQueryStrategy::SelectQueries(
    const QueryContext& ctx, size_t k, Rng* /*rng*/) {
  ValidateContext(ctx);
  const IncidenceIndex& index = *ctx.index;
  const double* scores = ctx.scores->data();
  const double* y = ctx.y->data();
  const std::vector<Pin>& pinned = *ctx.pinned;
  const auto& links = index.candidates().links();
  const size_t n = links.size();

  // The U+ links at every endpoint are gathered once; each U− link then
  // visits only those at its own two endpoints. A one-to-one y leaves at
  // most one U+ link per endpoint, so that costs O(|H| + users). Each link
  // offered to a TopK below costs at most O(log k), so with C the offered
  // links the round costs O(|H| + users + |C| log k).
  const PositivesByUser first =
      GatherPositives(index, /*first_side=*/true, pinned, y);
  const PositivesByUser second =
      GatherPositives(index, /*first_side=*/false, pinned, y);

  // Candidate set C: links in U− (inferred negative, unpinned) that
  // conflict with a near-tied positive l' and a dominated positive l''.
  // Keyed by −(ŷ_l − ŷ_l''), so the largest gap ranks first.
  TopK candidates(k);
  // Keyed by the min |ŷ_l' − ŷ_l| over conflicting positives.
  TopK near_misses(fill_with_near_misses_ ? k : 0);
  for (size_t l = 0; l < n; ++l) {
    if (pinned[l] != Pin::kFree || y[l] > 0.5) continue;  // need l ∈ U−
    const double score_l = scores[l];
    bool has_close_winner = false;
    double best_gap = -1.0;
    double min_distance = -1.0;
    // A positive sharing both endpoints is visited twice; every aggregate
    // below is a min, an any or a max, so repeats change nothing.
    auto visit = [&](const PositivesByUser& side, size_t user) {
      ACTIVEITER_CHECK(user + 1 < side.begin.size());
      for (size_t i = side.begin[user]; i < side.begin[user + 1]; ++i) {
        const size_t other = side.links[i];
        if (other == l) continue;  // y = 0.5 puts l in both U− and U+
        const double score_o = scores[other];
        const double distance = std::abs(score_o - score_l);
        if (min_distance < 0.0 || distance < min_distance) {
          min_distance = distance;
        }
        if (distance <= closeness_) {
          has_close_winner = true;  // candidate for l'
        }
        if (score_o > 0.0 && score_l - score_o >= dominance_) {
          best_gap = std::max(best_gap, score_l - score_o);  // candidate l''
        }
      }
    };
    visit(first, links[l].first);
    visit(second, links[l].second);
    // NOTE: l' and l'' are necessarily distinct when both conditions hold
    // with closeness_ < dominance-implied separation; when the same
    // positive satisfies both, querying l is still informative, so we do
    // not force distinctness.
    if (has_close_winner && best_gap >= 0.0) {
      candidates.Offer(-best_gap, l);
    } else if (min_distance >= 0.0) {
      near_misses.Offer(min_distance, l);
    }
  }
  std::vector<size_t> out;
  candidates.AppendTo(k, &out);
  near_misses.AppendTo(k, &out);
  return out;
}

std::vector<size_t> RandomQueryStrategy::SelectQueries(const QueryContext& ctx,
                                                       size_t k, Rng* rng) {
  ValidateContext(ctx);
  ACTIVEITER_CHECK(rng != nullptr);
  std::vector<size_t> unpinned;
  for (size_t l = 0; l < ctx.pinned->size(); ++l) {
    if ((*ctx.pinned)[l] == Pin::kFree) unpinned.push_back(l);
  }
  if (unpinned.size() <= k) return unpinned;
  std::vector<size_t> picks = rng->SampleWithoutReplacement(unpinned.size(), k);
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t p : picks) out.push_back(unpinned[p]);
  return out;
}

std::vector<size_t> UncertaintyQueryStrategy::SelectQueries(
    const QueryContext& ctx, size_t k, Rng* /*rng*/) {
  ValidateContext(ctx);
  TopK candidates(k);
  for (size_t l = 0; l < ctx.pinned->size(); ++l) {
    if ((*ctx.pinned)[l] != Pin::kFree) continue;
    candidates.Offer(std::abs((*ctx.scores)(l) - threshold_), l);
  }
  std::vector<size_t> out;
  candidates.AppendTo(k, &out);
  return out;
}

}  // namespace activeiter
