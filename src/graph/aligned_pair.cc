#include "src/graph/aligned_pair.h"

#include <algorithm>

#include "src/common/string_util.h"

namespace activeiter {

AlignedPair::AlignedPair(HeteroNetwork first, HeteroNetwork second)
    : first_(std::move(first)), second_(std::move(second)) {
  partner_of_first_.assign(first_.NodeCount(NodeType::kUser), -1);
  partner_of_second_.assign(second_.NodeCount(NodeType::kUser), -1);
}

Status AlignedPair::AddAnchor(NodeId u1, NodeId u2) {
  if (u1 >= first_.NodeCount(NodeType::kUser) ||
      u2 >= second_.NodeCount(NodeType::kUser)) {
    return Status::OutOfRange(
        StrFormat("anchor (%u, %u) out of user range", u1, u2));
  }
  if (partner_of_first_[u1] != -1) {
    return Status::FailedPrecondition(StrFormat(
        "user %u in %s already anchored (one-to-one constraint)", u1,
        first_.name().c_str()));
  }
  if (partner_of_second_[u2] != -1) {
    return Status::FailedPrecondition(StrFormat(
        "user %u in %s already anchored (one-to-one constraint)", u2,
        second_.name().c_str()));
  }
  partner_of_first_[u1] = u2;
  partner_of_second_[u2] = u1;
  anchors_.push_back({u1, u2});
  return Status::OK();
}

Status AlignedPair::ApplyDelta(const PairDelta& delta) {
  // Validate retractions against the CURRENT state (a retraction may only
  // withdraw an anchor that was actually revealed), then new anchors
  // against the post-growth user universes and the post-retraction
  // one-to-one maps — all before either network mutates; both networks'
  // deltas are validated next, still before either applies, so the whole
  // batch is all-or-nothing.
  const std::vector<AnchorLink>& retracted = delta.retracted_anchors;
  for (size_t i = 0; i < retracted.size(); ++i) {
    const AnchorLink& r = retracted[i];
    if (!IsAnchor(r.u1, r.u2)) {
      return Status::NotFound(StrFormat(
          "retraction of anchor (%u, %u): no such revealed anchor", r.u1,
          r.u2));
    }
    for (size_t j = 0; j < i; ++j) {
      if (retracted[j].u1 == r.u1 || retracted[j].u2 == r.u2) {
        return Status::FailedPrecondition(StrFormat(
            "anchor (%u, %u) retracted twice in one batch", r.u1, r.u2));
      }
    }
  }
  // True iff this batch retracts the anchor currently holding `u` on the
  // given side — that endpoint is free again for a new anchor.
  auto first_freed = [&retracted](NodeId u1) {
    for (const AnchorLink& r : retracted) {
      if (r.u1 == u1) return true;
    }
    return false;
  };
  auto second_freed = [&retracted](NodeId u2) {
    for (const AnchorLink& r : retracted) {
      if (r.u2 == u2) return true;
    }
    return false;
  };
  const size_t users_first = first_.NodeCount(NodeType::kUser) +
                             delta.first.NodeGrowth(NodeType::kUser);
  const size_t users_second = second_.NodeCount(NodeType::kUser) +
                              delta.second.NodeGrowth(NodeType::kUser);
  const std::vector<AnchorLink>& batch = delta.new_anchors;
  for (size_t i = 0; i < batch.size(); ++i) {
    const AnchorLink& a = batch[i];
    if (a.u1 >= users_first || a.u2 >= users_second) {
      return Status::OutOfRange(
          StrFormat("delta anchor (%u, %u) out of user range", a.u1, a.u2));
    }
    const bool u1_taken = a.u1 < partner_of_first_.size() &&
                          partner_of_first_[a.u1] != -1 && !first_freed(a.u1);
    const bool u2_taken = a.u2 < partner_of_second_.size() &&
                          partner_of_second_[a.u2] != -1 &&
                          !second_freed(a.u2);
    if (u1_taken || u2_taken) {
      return Status::FailedPrecondition(StrFormat(
          "delta anchor (%u, %u) violates the one-to-one constraint", a.u1,
          a.u2));
    }
    // Intra-batch duplicates: batches are small, a quadratic scan is fine.
    for (size_t j = 0; j < i; ++j) {
      if (batch[j].u1 == a.u1 || batch[j].u2 == a.u2) {
        return Status::FailedPrecondition(StrFormat(
            "delta anchors (%u, %u) and (%u, %u) share a user", batch[j].u1,
            batch[j].u2, a.u1, a.u2));
      }
    }
  }
  // Validate each side once, before either network mutates (the second
  // side's error, when both are bad, is the one reported).
  ACTIVEITER_RETURN_IF_ERROR(second_.ValidateDelta(delta.second));
  ACTIVEITER_RETURN_IF_ERROR(first_.ValidateDelta(delta.first));
  first_.ApplyValidatedDelta(delta.first);
  second_.ApplyValidatedDelta(delta.second);
  for (const AnchorLink& r : delta.retracted_anchors) {
    partner_of_first_[r.u1] = -1;
    partner_of_second_[r.u2] = -1;
    anchors_.erase(std::find(anchors_.begin(), anchors_.end(), r));
  }
  partner_of_first_.resize(users_first, -1);
  partner_of_second_.resize(users_second, -1);
  for (const AnchorLink& a : delta.new_anchors) {
    partner_of_first_[a.u1] = a.u2;
    partner_of_second_[a.u2] = a.u1;
    anchors_.push_back(a);
  }
  return Status::OK();
}

bool AlignedPair::IsAnchor(NodeId u1, NodeId u2) const {
  return u1 < partner_of_first_.size() &&
         partner_of_first_[u1] == static_cast<int64_t>(u2);
}

bool AlignedPair::PartnerOfFirst(NodeId u1, NodeId* u2) const {
  if (u1 >= partner_of_first_.size() || partner_of_first_[u1] < 0) {
    return false;
  }
  *u2 = static_cast<NodeId>(partner_of_first_[u1]);
  return true;
}

bool AlignedPair::PartnerOfSecond(NodeId u2, NodeId* u1) const {
  if (u2 >= partner_of_second_.size() || partner_of_second_[u2] < 0) {
    return false;
  }
  *u1 = static_cast<NodeId>(partner_of_second_[u2]);
  return true;
}

SparseMatrix AlignedPair::FullAnchorMatrix() const {
  return AnchorMatrixFor(anchors_);
}

SparseMatrix AlignedPair::AnchorMatrixFor(
    const std::vector<AnchorLink>& subset) const {
  std::vector<Triplet> trips;
  trips.reserve(subset.size());
  for (const auto& a : subset) {
    ACTIVEITER_CHECK(a.u1 < first_.NodeCount(NodeType::kUser));
    ACTIVEITER_CHECK(a.u2 < second_.NodeCount(NodeType::kUser));
    trips.push_back({a.u1, a.u2, 1.0});
  }
  return SparseMatrix::FromTriplets(first_.NodeCount(NodeType::kUser),
                                    second_.NodeCount(NodeType::kUser),
                                    std::move(trips));
}

Status AlignedPair::ValidateSharedAttributes() const {
  for (NodeType t :
       {NodeType::kWord, NodeType::kLocation, NodeType::kTimestamp}) {
    if (first_.NodeCount(t) != second_.NodeCount(t)) {
      return Status::FailedPrecondition(StrFormat(
          "shared attribute universe mismatch for %s: %zu vs %zu",
          NodeTypeName(t), first_.NodeCount(t), second_.NodeCount(t)));
    }
  }
  return Status::OK();
}

}  // namespace activeiter
