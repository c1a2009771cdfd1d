#include "src/serve/ingestor.h"

#include <algorithm>
#include <cstring>

namespace activeiter {
namespace {

// Shrink-path accounting on the default registry (alongside the cholesky
// counters), so --metrics_json sees it without any sink attached.
Counter& RowsRemovedCounter() {
  static Counter* counter = MetricsRegistry::Default().GetCounter(
      "serve.ingest.rows_removed");
  return *counter;
}

// The rows of `before` that survive the removal of `removed` (ascending)
// are rows 0, 1, ... of `after`: counts those whose entries moved, in
// column or in value bits.
size_t CountChangedRows(const SparseMatrix& before,
                        const std::vector<size_t>& removed,
                        const SparseMatrix& after) {
  const auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  const uint32_t* b_col = before.col_idx().data();
  const uint32_t* a_col = after.col_idx().data();
  const double* b_val = before.values().data();
  const double* a_val = after.values().data();
  size_t changed = 0, next_removed = 0, r = 0;
  for (size_t i = 0; i < before.rows(); ++i) {
    if (next_removed < removed.size() && removed[next_removed] == i) {
      ++next_removed;
      continue;
    }
    const size_t b = before.row_ptr()[i], e = before.row_ptr()[i + 1];
    const size_t a = after.row_ptr()[r], nnz = after.RowNnz(r++);
    changed += e - b != nnz ||
               !std::equal(b_col + b, b_col + e, a_col + a) ||
               !std::equal(b_val + b, b_val + e, a_val + a, same_bits);
  }
  return changed;
}

}  // namespace

ServeDelta MergeServeDeltas(std::vector<ServeDelta> deltas) {
  ServeDelta merged;
  // Fold one side's edge lists in, collapsing opposing operations: a
  // removal cancels one pending same-key addition and an addition cancels
  // one pending same-key removal (add-then-remove and remove-then-re-add
  // are both multiset no-ops, so the merged batch stays equivalent to the
  // sequential application).
  auto merge_side = [](GraphDelta& into, GraphDelta& from) {
    into.nodes.insert(into.nodes.end(), from.nodes.begin(), from.nodes.end());
    auto same = [](const EdgeDelta& a, const EdgeDelta& b) {
      return a.relation == b.relation && a.src == b.src && a.dst == b.dst;
    };
    for (EdgeDelta& e : from.edges) {
      auto it = std::find_if(
          into.removed_edges.begin(), into.removed_edges.end(),
          [&](const EdgeDelta& r) { return same(r, e); });
      if (it != into.removed_edges.end()) {
        into.removed_edges.erase(it);
      } else {
        into.edges.push_back(e);
      }
    }
    for (EdgeDelta& r : from.removed_edges) {
      auto it =
          std::find_if(into.edges.begin(), into.edges.end(),
                       [&](const EdgeDelta& e) { return same(e, r); });
      if (it != into.edges.end()) {
        into.edges.erase(it);
      } else {
        into.removed_edges.push_back(r);
      }
    }
  };
  for (ServeDelta& d : deltas) {
    ACTIVEITER_CHECK_MSG(d.candidate_ids.empty(),
                         "batches are merged before routing assigns ids");
    merge_side(merged.graph.first, d.graph.first);
    merge_side(merged.graph.second, d.graph.second);
    // Anchor reveal/retraction collapse on the exact link.
    for (AnchorLink& a : d.graph.new_anchors) {
      auto it = std::find(merged.graph.retracted_anchors.begin(),
                          merged.graph.retracted_anchors.end(), a);
      if (it != merged.graph.retracted_anchors.end()) {
        merged.graph.retracted_anchors.erase(it);
      } else {
        merged.graph.new_anchors.push_back(a);
      }
    }
    for (AnchorLink& r : d.graph.retracted_anchors) {
      auto it = std::find(merged.graph.new_anchors.begin(),
                          merged.graph.new_anchors.end(), r);
      if (it != merged.graph.new_anchors.end()) {
        merged.graph.new_anchors.erase(it);
      } else {
        merged.graph.retracted_anchors.push_back(r);
      }
    }
    // Candidate add/remove collapse on the endpoint pair: a removal
    // cancels the pending addition, a re-add cancels the pending removal
    // (the candidate keeps its existing row/id).
    for (const auto& c : d.new_candidates) {
      auto it = std::find(merged.removed_candidates.begin(),
                          merged.removed_candidates.end(), c);
      if (it != merged.removed_candidates.end()) {
        merged.removed_candidates.erase(it);
      } else {
        merged.new_candidates.push_back(c);
      }
    }
    for (const auto& r : d.removed_candidates) {
      auto it = std::find(merged.new_candidates.begin(),
                          merged.new_candidates.end(), r);
      if (it != merged.new_candidates.end()) {
        merged.new_candidates.erase(it);
      } else {
        merged.removed_candidates.push_back(r);
      }
    }
  }
  return merged;
}

IngestStats& IngestStats::operator+=(const IngestStats& other) {
  epochs_published += other.epochs_published;
  deltas_applied += other.deltas_applied;
  coalesced_batches += other.coalesced_batches;
  rows_appended += other.rows_appended;
  rows_replaced += other.rows_replaced;
  rows_removed += other.rows_removed;
  full_factorisations += other.full_factorisations;
  pipeline_stalls += other.pipeline_stalls;
  max_inflight_planes = std::max(max_inflight_planes,
                                 other.max_inflight_planes);
  return *this;
}

Status ValidateCandidateEndpoints(const AlignedPair& pair,
                                  const ServeDelta& delta) {
  // A malformed delta must surface as a Status before anything mutates,
  // not kill the server halfway through an epoch.
  const size_t users_first = pair.first().NodeCount(NodeType::kUser) +
                             delta.graph.first.NodeGrowth(NodeType::kUser);
  const size_t users_second = pair.second().NodeCount(NodeType::kUser) +
                              delta.graph.second.NodeGrowth(NodeType::kUser);
  for (const auto& [u1, u2] : delta.new_candidates) {
    if (u1 >= users_first || u2 >= users_second) {
      return Status::OutOfRange(
          "delta candidate endpoint outside the post-growth user universe");
    }
  }
  return Status::OK();
}

ModelShard::ModelShard(CandidateLinkSet candidates,
                       std::vector<size_t> global_ids,
                       AlignmentService* service, IngestorOptions options)
    : candidates_(std::move(candidates)),
      service_(service),
      options_(std::move(options)),
      aligner_([this] {
        IterAlignerOptions base;
        base.c = options_.serve.ridge_c;
        base.threshold = options_.serve.threshold;
        return base;
      }()),
      global_ids_(std::move(global_ids)) {
  ACTIVEITER_CHECK(service != nullptr);
  ACTIVEITER_CHECK_MSG(global_ids_.size() == candidates_.size(),
                       "global_ids must cover the candidate set");
  for (size_t i = 1; i < global_ids_.size(); ++i) {
    ACTIVEITER_CHECK_MSG(global_ids_[i] > global_ids_[i - 1],
                         "global link ids must be strictly increasing");
  }
  next_global_id_ = global_ids_.empty() ? 0 : global_ids_.back() + 1;
}

Status ModelShard::Start(FeaturePlane& plane) {
  if (started_) return Status::FailedPrecondition("already started");
  TraceSpan span(options_.obs.tracer, "ingest.start");
  plane.Refresh();
  x_ = std::make_shared<const SparseMatrix>(
      plane.tables()->Gather(candidates_));
  index_ = std::make_unique<IncidenceIndex>(plane.pair(), candidates_);
  labeled_.reserve(plane.train_anchors().size() * 2);
  for (const AnchorLink& a : plane.train_anchors()) {
    labeled_.insert((static_cast<uint64_t>(a.u1) << 32) | a.u2);
  }
  pins_.assign(candidates_.size(), Pin::kFree);
  PinLabeled(0);
  ACTIVEITER_RETURN_IF_ERROR(Publish());
  started_ = true;
  return Status::OK();
}

void ModelShard::PinLabeled(size_t first) {
  for (size_t id = first; id < candidates_.size(); ++id) {
    const auto& [u1, u2] = candidates_.link(id);
    if (labeled_.count((static_cast<uint64_t>(u1) << 32) | u2) != 0) {
      pins_[id] = Pin::kPositive;
    }
  }
}

Status ModelShard::Publish() {
  // The refit takes X as gathered and forms G = XᵀX and L = chol(I + cG)
  // exactly as a fresh batch build does (serially: the shards already run
  // in parallel), so the served model is bitwise a fresh build's.
  auto session = [&] {
    TraceSpan span(options_.obs.tracer, "ingest.refit");
    return AlignmentSession::CreateFromPrepared(
        std::make_shared<RidgePrepared>(RidgePrepared::Create(x_)), *index_,
        options_.serve.ridge_c);
  }();
  if (!session.ok()) return session.status();
  session.value().ResetPins(pins_);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.full_factorisations;
  }
  auto result = [&] {
    TraceSpan span(options_.obs.tracer, "ingest.realign");
    return aligner_.Align(session.value());
  }();
  if (!result.ok()) return result.status();
  AlignmentResult& r = result.value();
  TraceSpan span(options_.obs.tracer, "ingest.snapshot_publish");
  auto snap = std::make_shared<const ModelSnapshot>(
      BuildSnapshot(epoch_, *index_, std::move(r.scores), std::move(r.y),
                    std::move(r.w), global_ids_));
  service_->Publish(std::move(snap));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.epochs_published;
  }
  return Status::OK();
}

Status ModelShard::ApplySlice(const ProximityTables& tables,
                              const ServeDelta& slice,
                              size_t submitted_batches) {
  if (!started_) return Status::FailedPrecondition("Start() first");
  TraceSpan slice_span(options_.obs.tracer, "ingest.apply_slice");

  // Global link ids are internal plumbing (assigned by the shard layer),
  // so malformed ids are a programming error, not a Status.
  ACTIVEITER_CHECK_MSG(
      slice.candidate_ids.size() == slice.new_candidates.size(),
      "candidate_ids must be parallel to new_candidates");
  size_t next_global_id = next_global_id_;
  for (size_t id : slice.candidate_ids) {
    ACTIVEITER_CHECK_MSG(id >= next_global_id,
                         "global link ids must be strictly increasing");
    next_global_id = id + 1;
  }

  // Withdrawn candidates leave FIRST, so the appends and the gather below
  // see the compacted slice: their index entries, global ids and pins
  // compact out together.
  std::vector<size_t> ids;  // removed local ids, ascending
  if (!slice.removed_candidates.empty()) {
    TraceSpan span(options_.obs.tracer, "ingest.remove_coalesce");
    auto resolved = ResolveRemovals(slice.removed_candidates);
    if (!resolved.ok()) return resolved.status();
    ids = std::move(resolved).value();
    // Validates range/duplicates and prunes the per-user lists eagerly.
    ACTIVEITER_RETURN_IF_ERROR(index_->RemoveCandidates(ids));
    for (size_t id : ids) {
      Status removed = candidates_.Remove(id);
      ACTIVEITER_CHECK_MSG(removed.ok(), "validated removal failed to apply");
    }
    index_->CompactWith(candidates_.Compact());
    size_t next_removed = 0;
    size_t write = 0;
    for (size_t i = 0; i < global_ids_.size(); ++i) {
      if (next_removed < ids.size() && ids[next_removed] == i) {
        ++next_removed;
        continue;
      }
      global_ids_[write] = global_ids_[i];
      pins_[write] = pins_[i];
      ++write;
    }
    global_ids_.resize(write);
    pins_.resize(write);
    RowsRemovedCounter().Add(ids.size());
  }

  const size_t old_count = candidates_.size();
  {
    TraceSpan span(options_.obs.tracer, "ingest.append_rows");
    for (size_t r = 0; r < slice.new_candidates.size(); ++r) {
      const auto& [u1, u2] = slice.new_candidates[r];
      candidates_.Add(u1, u2);
      global_ids_.push_back(slice.candidate_ids[r]);
    }
    next_global_id_ = next_global_id;
    index_->SyncWithCandidates(tables.users_first(), tables.users_second());
    pins_.resize(candidates_.size(), Pin::kFree);
    // A re-revealed candidate that IS a train anchor re-enters L+ — the
    // churn twin of Start()'s pinning pass (appended negatives never match
    // an anchor, so this is a no-op on grow-only streams).
    if (!slice.new_candidates.empty()) PinLabeled(old_count);
  }

  // X anew from the tables; a surviving row whose entries moved counts as
  // replaced.
  size_t replaced = 0;
  {
    TraceSpan span(options_.obs.tracer, "ingest.replace_rows");
    auto gathered =
        std::make_shared<const SparseMatrix>(tables.Gather(candidates_));
    replaced = CountChangedRows(*x_, ids, *gathered);
    x_ = std::move(gathered);
  }

  ++epoch_;
  ACTIVEITER_RETURN_IF_ERROR(Publish());

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.deltas_applied += submitted_batches;
    stats_.coalesced_batches += submitted_batches - 1;
    stats_.rows_appended += slice.new_candidates.size();
    stats_.rows_replaced += replaced;
    stats_.rows_removed += ids.size();
  }
  return Status::OK();
}

Result<std::vector<size_t>> ModelShard::ResolveRemovals(
    const std::vector<std::pair<NodeId, NodeId>>& removed) const {
  if (!started_) return Status::FailedPrecondition("Start() first");
  std::vector<size_t> ids;
  ids.reserve(removed.size());
  for (const auto& [u1, u2] : removed) {
    size_t found = CandidateLinkSet::kRemovedId;
    if (u1 < index_->users_first()) {
      for (size_t id : index_->LinksOfFirst(u1)) {
        if (candidates_.link(id).second == u2) {
          found = id;
          break;
        }
      }
    }
    if (found == CandidateLinkSet::kRemovedId) {
      return Status::NotFound(
          "removal names a candidate pair this shard does not serve");
    }
    ids.push_back(found);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return Status::NotFound("removal names one candidate pair twice");
  }
  return ids;
}

IngestStats ModelShard::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace activeiter
