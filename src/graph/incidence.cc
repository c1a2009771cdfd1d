#include "src/graph/incidence.h"

#include <algorithm>

#include "src/common/string_util.h"

namespace activeiter {

size_t CandidateLinkSet::Add(NodeId u1, NodeId u2) {
  links_.emplace_back(u1, u2);
  return links_.size() - 1;
}

Status CandidateLinkSet::Remove(size_t id) {
  if (id >= links_.size()) {
    return Status::OutOfRange(
        StrFormat("candidate link id %zu out of range (%zu links)", id,
                  links_.size()));
  }
  if (removed(id)) {
    return Status::NotFound(
        StrFormat("candidate link %zu already removed", id));
  }
  if (removed_.size() < links_.size()) removed_.resize(links_.size(), false);
  removed_[id] = true;
  ++removed_count_;
  return Status::OK();
}

std::vector<size_t> CandidateLinkSet::Compact() {
  std::vector<size_t> remap(links_.size(), kRemovedId);
  size_t next = 0;
  for (size_t id = 0; id < links_.size(); ++id) {
    if (removed(id)) continue;
    remap[id] = next;
    links_[next] = links_[id];
    ++next;
  }
  links_.resize(next);
  removed_.clear();
  removed_count_ = 0;
  return remap;
}

IncidenceIndex::IncidenceIndex(const AlignedPair& pair,
                               const CandidateLinkSet& candidates)
    : candidates_(&candidates),
      users_first_(pair.first().NodeCount(NodeType::kUser)),
      users_second_(pair.second().NodeCount(NodeType::kUser)),
      indexed_count_(candidates.size()),
      by_first_(users_first_),
      by_second_(users_second_) {
  for (size_t id = 0; id < candidates.size(); ++id) {
    const auto& [u1, u2] = candidates.link(id);
    ACTIVEITER_CHECK_MSG(u1 < users_first_ && u2 < users_second_,
                         "candidate link endpoint out of range");
    by_first_[u1].push_back(id);
    by_second_[u2].push_back(id);
  }
}

void IncidenceIndex::SyncWithCandidates(size_t users_first,
                                        size_t users_second) {
  users_first_ = users_first;
  users_second_ = users_second;
  ACTIVEITER_CHECK_MSG(
      users_first_ >= by_first_.size() && users_second_ >= by_second_.size(),
      "user universes may only grow");
  ACTIVEITER_CHECK_MSG(
      candidates_->size() >= indexed_count_,
      "candidate set shrank behind the index: shrinkage must flow through "
      "RemoveCandidates + CompactWith, not bare erasure");
  by_first_.resize(users_first_);
  by_second_.resize(users_second_);
  for (size_t id = indexed_count_; id < candidates_->size(); ++id) {
    const auto& [u1, u2] = candidates_->link(id);
    ACTIVEITER_CHECK_MSG(u1 < users_first_ && u2 < users_second_,
                         "candidate link endpoint out of range");
    by_first_[u1].push_back(id);
    by_second_[u2].push_back(id);
  }
  indexed_count_ = candidates_->size();
}

Status IncidenceIndex::RemoveCandidates(const std::vector<size_t>& ids) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= indexed_count_) {
      return Status::OutOfRange(StrFormat(
          "candidate removal id %zu out of indexed range (%zu)", ids[i],
          indexed_count_));
    }
    if (IsRemoved(ids[i])) {
      return Status::NotFound(
          StrFormat("candidate link %zu already removed", ids[i]));
    }
    for (size_t j = 0; j < i; ++j) {
      if (ids[j] == ids[i]) {
        return Status::NotFound(StrFormat(
            "candidate link %zu removed twice in one batch", ids[i]));
      }
    }
  }
  if (removed_.size() < indexed_count_) removed_.resize(indexed_count_, false);
  for (size_t id : ids) {
    removed_[id] = true;
    ++removed_count_;
    // Eager prune: removed links must never surface through the per-user
    // lists (snapshots copy them verbatim).
    const auto& [u1, u2] = candidates_->link(id);
    auto& first_list = by_first_[u1];
    first_list.erase(std::find(first_list.begin(), first_list.end(), id));
    auto& second_list = by_second_[u2];
    second_list.erase(std::find(second_list.begin(), second_list.end(), id));
  }
  return Status::OK();
}

void IncidenceIndex::CompactWith(const std::vector<size_t>& remap) {
  ACTIVEITER_CHECK_MSG(remap.size() == indexed_count_,
                       "compaction remap size mismatch");
  auto rewrite = [&remap](std::vector<std::vector<size_t>>& lists) {
    for (auto& list : lists) {
      for (size_t& id : list) {
        id = remap[id];
        ACTIVEITER_CHECK_MSG(id != CandidateLinkSet::kRemovedId,
                             "removed link survived the eager prune");
      }
    }
  };
  rewrite(by_first_);
  rewrite(by_second_);
  removed_.clear();
  removed_count_ = 0;
  indexed_count_ -= std::count(remap.begin(), remap.end(),
                               CandidateLinkSet::kRemovedId);
}

const std::vector<size_t>& IncidenceIndex::LinksOfFirst(NodeId u1) const {
  ACTIVEITER_CHECK(u1 < users_first_);
  return by_first_[u1];
}

const std::vector<size_t>& IncidenceIndex::LinksOfSecond(NodeId u2) const {
  ACTIVEITER_CHECK(u2 < users_second_);
  return by_second_[u2];
}

SparseMatrix IncidenceIndex::FirstIncidenceMatrix() const {
  std::vector<Triplet> trips;
  trips.reserve(candidates_->size());
  for (size_t id = 0; id < candidates_->size(); ++id) {
    if (IsRemoved(id)) continue;  // tombstoned column stays empty
    trips.push_back({candidates_->link(id).first, static_cast<uint32_t>(id),
                     1.0});
  }
  return SparseMatrix::FromTriplets(users_first_, candidates_->size(),
                                    std::move(trips));
}

SparseMatrix IncidenceIndex::SecondIncidenceMatrix() const {
  std::vector<Triplet> trips;
  trips.reserve(candidates_->size());
  for (size_t id = 0; id < candidates_->size(); ++id) {
    if (IsRemoved(id)) continue;  // tombstoned column stays empty
    trips.push_back({candidates_->link(id).second, static_cast<uint32_t>(id),
                     1.0});
  }
  return SparseMatrix::FromTriplets(users_second_, candidates_->size(),
                                    std::move(trips));
}

Vector IncidenceIndex::FirstDegrees(const Vector& y) const {
  ACTIVEITER_CHECK(y.size() == candidates_->size());
  Vector d(users_first_);
  for (size_t id = 0; id < candidates_->size(); ++id) {
    if (IsRemoved(id)) continue;
    d(candidates_->link(id).first) += y(id);
  }
  return d;
}

Vector IncidenceIndex::SecondDegrees(const Vector& y) const {
  ACTIVEITER_CHECK(y.size() == candidates_->size());
  Vector d(users_second_);
  for (size_t id = 0; id < candidates_->size(); ++id) {
    if (IsRemoved(id)) continue;
    d(candidates_->link(id).second) += y(id);
  }
  return d;
}

bool IncidenceIndex::SatisfiesOneToOne(const Vector& y) const {
  Vector d1 = FirstDegrees(y);
  Vector d2 = SecondDegrees(y);
  for (size_t i = 0; i < d1.size(); ++i) {
    if (d1(i) < -1e-9 || d1(i) > 1.0 + 1e-9) return false;
  }
  for (size_t i = 0; i < d2.size(); ++i) {
    if (d2(i) < -1e-9 || d2(i) > 1.0 + 1e-9) return false;
  }
  return true;
}

}  // namespace activeiter
