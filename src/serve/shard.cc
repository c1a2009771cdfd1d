#include "src/serve/shard.h"

#include <algorithm>
#include <utility>

namespace activeiter {

std::vector<ServeDelta> RouteServeDelta(const ServeDelta& delta,
                                        const ShardPartition& partition,
                                        size_t first_global_id) {
  ACTIVEITER_CHECK_MSG(delta.candidate_ids.empty(),
                       "incoming batches must not carry global link ids");
  std::vector<ServeDelta> routed(partition.num_shards);
  for (ServeDelta& r : routed) r.graph = delta.graph;
  // Removals are identified by endpoint pair, so the owning shard falls
  // out of the same first-endpoint rule that placed the candidate.
  for (const auto& [u1, u2] : delta.removed_candidates) {
    routed[partition.ShardOfFirstUser(u1)].removed_candidates.emplace_back(
        u1, u2);
  }
  size_t global_id = first_global_id;
  for (const auto& [u1, u2] : delta.new_candidates) {
    ServeDelta& r = routed[partition.ShardOfFirstUser(u1)];
    r.new_candidates.emplace_back(u1, u2);
    r.candidate_ids.push_back(global_id++);
  }
  return routed;
}

/// Persistent absorb thread of one shard: a mailbox of routed slices,
/// drained FIFO, so a shard sees every drain in submission order while
/// the coordinator is already preparing the next drain. Started at
/// StartBackground, joined (after draining) at Stop — steady-state drains
/// spawn zero threads.
class ShardedIngestor::ShardExecutor {
 public:
  ShardExecutor(ShardedIngestor* owner, size_t shard)
      : owner_(owner), shard_(shard), thread_([this] { Loop(); }) {}

  ~ShardExecutor() { Join(); }

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  void Enqueue(SliceTask task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      mailbox_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Drains the mailbox, then joins (idempotent).
  void Join() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    for (;;) {
      SliceTask task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !mailbox_.empty(); });
        if (mailbox_.empty()) return;  // stopping with a drained mailbox
        task = std::move(mailbox_.front());
        mailbox_.pop_front();
      }
      // A sticky error stops the model line. Later drains may already sit
      // in the mailbox (that is the pipeline); skip their absorbs rather
      // than advance a shard whose sibling failed.
      Status status = Status::OK();
      if (owner_->background_status().ok()) {
        status = owner_->shards_[shard_]->ApplySlice(
            *task.tables, task.slice, task.submitted_batches);
      }
      owner_->OnSliceDone(task.seq, status);
    }
  }

  ShardedIngestor* owner_;
  size_t shard_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<SliceTask> mailbox_;
  bool stopping_ = false;
  std::thread thread_;  // last member: starts after the state above
};

ShardedIngestor::ShardedIngestor(AlignedPair pair,
                                 std::vector<AnchorLink> train_anchors,
                                 CandidateLinkSet candidates,
                                 IngestorOptions options)
    : options_(std::move(options)),
      plane_(std::move(pair), std::move(train_anchors),
             options_.serve.features) {
  ACTIVEITER_CHECK(options_.partition.Validate().ok());
  plane_.set_obs(options_.obs);
  if (options_.obs.metrics != nullptr) {
    epoch_lag_ = options_.obs.metrics->GetGauge("serve.ingest.epoch_lag");
    pipeline_inflight_ =
        options_.obs.metrics->GetGauge("ingest.pipeline.depth");
    pipeline_stall_counter_ =
        options_.obs.metrics->GetCounter("ingest.pipeline.stalls");
  }
  const size_t n = options_.partition.num_shards;
  next_global_id_ = candidates.size();
  std::vector<CandidateSlice> slices =
      PartitionCandidates(candidates, options_.partition);
  services_.reserve(n);
  shards_.reserve(n);
  std::vector<const QueryBackend*> backends;
  backends.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    services_.push_back(std::make_unique<AlignmentService>());
    services_.back()->set_metrics(options_.obs.metrics);
    shards_.push_back(std::make_unique<ModelShard>(
        std::move(slices[s].links), std::move(slices[s].global_ids),
        services_.back().get(), options_));
    backends.push_back(services_.back().get());
  }
  router_ =
      std::make_unique<ShardRouter>(std::move(backends), options_.partition);
  router_->set_metrics(options_.obs.metrics);
}

ShardedIngestor::~ShardedIngestor() { Stop(); }

Status ShardedIngestor::Start() {
  // Sequential: the first shard's Start refreshes the plane; the rest
  // gather their slices from the same tables.
  for (auto& shard : shards_) {
    ACTIVEITER_RETURN_IF_ERROR(shard->Start(plane_));
  }
  return Status::OK();
}

Status ShardedIngestor::ApplyMerged(const ServeDelta& merged,
                                    size_t submitted_batches) {
  for (const auto& shard : shards_) {
    if (!shard->started()) return Status::FailedPrecondition("Start() first");
  }
  // Validate-before-mutate: a rejected batch leaves the plane AND every
  // shard untouched, so the write side stays consistent. Routing is pure,
  // so every owning shard resolves its removals before the plane moves.
  ACTIVEITER_RETURN_IF_ERROR(
      ValidateCandidateEndpoints(plane_.pair(), merged));
  std::vector<ServeDelta> routed = [&] {
    TraceSpan span(options_.obs.tracer, "ingest.route");
    return RouteServeDelta(merged, options_.partition, next_global_id_);
  }();
  for (size_t s = 0; s < shards_.size(); ++s) {
    ACTIVEITER_RETURN_IF_ERROR(
        shards_[s]->ResolveRemovals(routed[s].removed_candidates).status());
  }
  ACTIVEITER_RETURN_IF_ERROR(plane_.Apply(merged.graph));
  plane_.Refresh();
  const std::shared_ptr<const ProximityTables> tables = plane_.tables();
  for (size_t s = 0; s < shards_.size(); ++s) {
    ACTIVEITER_RETURN_IF_ERROR(
        shards_[s]->ApplySlice(*tables, routed[s], submitted_batches));
  }
  next_global_id_ += merged.new_candidates.size();
  return Status::OK();
}

Status ShardedIngestor::PrepareDrain(const ServeDelta& merged,
                                     size_t submitted_batches) {
  // With kMaxInflightDrains in flight, the oldest is still absorbing:
  // wait for it to land — backpressure, counted as a stall.
  bool overlapped = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (inflight_drains_ >= kMaxInflightDrains) {
      ++stall_count_;
      if (pipeline_stall_counter_ != nullptr) {
        pipeline_stall_counter_->Increment();
      }
      absorbed_cv_.wait(
          lock, [this] { return inflight_drains_ < kMaxInflightDrains; });
    }
    ++inflight_drains_;
    max_inflight_ = std::max<uint64_t>(max_inflight_, inflight_drains_);
    overlapped = inflight_drains_ > 1;
    if (pipeline_inflight_ != nullptr) pipeline_inflight_->Add(1);
  }
  Status prepared = Status::OK();
  std::shared_ptr<const ProximityTables> tables;
  std::vector<ServeDelta> routed;
  {
    TraceSpan prepare(options_.obs.tracer, "ingest.pipeline.prepare");
    // Overlap accounting: prepare time spent while at least one earlier
    // drain was still absorbing is exactly the pipeline's win.
    TraceSpan overlap(overlapped ? options_.obs.tracer : nullptr,
                      "ingest.pipeline.overlap");
    prepared = ValidateCandidateEndpoints(plane_.pair(), merged);
    if (prepared.ok()) prepared = plane_.Apply(merged.graph);
    if (prepared.ok()) {
      plane_.Refresh();
      tables = plane_.tables();
      TraceSpan route_span(options_.obs.tracer, "ingest.route");
      routed = RouteServeDelta(merged, options_.partition, next_global_id_);
    }
  }
  if (!prepared.ok()) {
    // Rejected before anything mutated: the drain leaves the pipeline.
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_drains_;
    if (pipeline_inflight_ != nullptr) pipeline_inflight_->Sub(1);
    return prepared;
  }
  const uint64_t seq = ++drain_seq_;
  next_global_id_ += merged.new_candidates.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    tickets_.push_back(DrainTicket{seq, shards_.size(), submitted_batches});
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    executors_[s]->Enqueue(
        SliceTask{tables, std::move(routed[s]), submitted_batches, seq});
  }
  return Status::OK();
}

void ShardedIngestor::OnSliceDone(uint64_t seq, const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok() && background_status_.ok()) background_status_ = status;
  for (auto it = tickets_.begin(); it != tickets_.end(); ++it) {
    if (it->seq != seq) continue;
    if (--it->remaining == 0) {
      // Last shard of the drain: it leaves the pipeline, and the
      // coalesced submits count as published.
      --inflight_drains_;
      if (pipeline_inflight_ != nullptr) pipeline_inflight_->Sub(1);
      if (epoch_lag_ != nullptr) epoch_lag_->Sub(it->submitted);
      in_flight_ -= it->submitted;
      tickets_.erase(it);
      absorbed_cv_.notify_all();
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
    return;
  }
  ACTIVEITER_CHECK_MSG(false, "completion for an unknown drain ticket");
}

Status ShardedIngestor::ApplyOnce(const ServeDelta& delta) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ACTIVEITER_CHECK_MSG(!thread_running_,
                         "ApplyOnce may not race the coordinator");
  }
  return ApplyMerged(delta, /*submitted_batches=*/1);
}

void ShardedIngestor::StartBackground() {
  for (const auto& shard : shards_) {
    ACTIVEITER_CHECK_MSG(shard->started(),
                         "Start() before StartBackground()");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (thread_running_) return;
  stopping_ = false;
  thread_running_ = true;
  executors_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    executors_.push_back(std::make_unique<ShardExecutor>(this, s));
  }
  worker_ = std::thread([this] { WorkerLoop(); });
}

void ShardedIngestor::Submit(ServeDelta delta) {
  TraceSpan span(options_.obs.tracer, "ingest.submit");
  ACTIVEITER_CHECK_MSG(delta.candidate_ids.empty(),
                       "incoming batches must not carry global link ids");
  if (epoch_lag_ != nullptr) epoch_lag_->Add(1);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (options_.submit_queue_limit > 0 && thread_running_ && !stopping_ &&
        queue_.size() >= options_.submit_queue_limit) {
      // Backpressure: the producer outran the shards by a full queue.
      ++stall_count_;
      if (pipeline_stall_counter_ != nullptr) {
        pipeline_stall_counter_->Increment();
      }
      queue_space_cv_.wait(lock, [this] {
        return queue_.size() < options_.submit_queue_limit ||
               !thread_running_ || stopping_;
      });
    }
    queue_.push_back(std::move(delta));
  }
  cv_.notify_one();
}

void ShardedIngestor::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return (queue_.empty() && in_flight_ == 0) || !thread_running_;
  });
}

void ShardedIngestor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  queue_space_cv_.notify_all();
  worker_.join();
  // Executors drain their mailboxes before joining, so every dispatched
  // drain publishes (or is skipped by a sticky error) first.
  for (auto& executor : executors_) executor->Join();
  executors_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  ACTIVEITER_CHECK(tickets_.empty());
  thread_running_ = false;
  stopping_ = false;
  idle_cv_.notify_all();
}

Status ShardedIngestor::background_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return background_status_;
}

void ShardedIngestor::WorkerLoop() {
  for (;;) {
    std::vector<ServeDelta> drained;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping with a drained queue
      const size_t take = options_.drain == DrainPolicy::kCoalesce
                              ? queue_.size()
                              : size_t{1};
      drained.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        drained.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ += drained.size();
      queue_space_cv_.notify_all();
      if (!background_status_.ok()) {
        // Sticky error: discard the batch, keep draining the queue.
        in_flight_ -= drained.size();
        if (epoch_lag_ != nullptr) epoch_lag_->Sub(drained.size());
        if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
        continue;
      }
    }
    const size_t count = drained.size();
    ServeDelta merged = [&] {
      TraceSpan span(options_.obs.tracer, "ingest.drain_coalesce");
      return count == 1 ? std::move(drained.front())
                        : MergeServeDeltas(std::move(drained));
    }();
    const Status prepared = PrepareDrain(merged, count);
    if (!prepared.ok()) {
      // Rejected before dispatch: the batches are no longer pending.
      if (epoch_lag_ != nullptr) epoch_lag_->Sub(count);
      std::lock_guard<std::mutex> lock(mu_);
      if (background_status_.ok()) background_status_ = prepared;
      in_flight_ -= count;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

IngestStats ShardedIngestor::stats() const {
  // Drain-level counters are lock-step across shards (every shard sees
  // every drain), so shard 0 speaks for all; per-row work is summed.
  IngestStats total = shards_.front()->stats();
  for (size_t s = 1; s < shards_.size(); ++s) {
    const IngestStats shard = shards_[s]->stats();
    total.rows_appended += shard.rows_appended;
    total.rows_removed += shard.rows_removed;
    total.rows_replaced += shard.rows_replaced;
    total.full_factorisations += shard.full_factorisations;
  }
  std::lock_guard<std::mutex> lock(mu_);
  total.pipeline_stalls = stall_count_;
  // Before any background drain the pipeline trivially had one drain "in
  // flight"; report 1 so ApplyOnce-only runs read 0 stalls / 1.
  total.max_inflight_planes = std::max<uint64_t>(max_inflight_, 1);
  return total;
}

IngestStats ShardedIngestor::shard_stats(size_t shard) const {
  ACTIVEITER_CHECK(shard < shards_.size());
  return shards_[shard]->stats();
}

const ModelShard& ShardedIngestor::shard(size_t shard) const {
  ACTIVEITER_CHECK(shard < shards_.size());
  return *shards_[shard];
}

const AlignmentService& ShardedIngestor::shard_service(size_t shard) const {
  ACTIVEITER_CHECK(shard < shards_.size());
  return *services_[shard];
}

}  // namespace activeiter
