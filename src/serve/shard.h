// ShardedIngestor: the write side of the sharded serve layer, run as a
// two-stage software pipeline.
//
//                       ┌──────────────── ShardedIngestor ────────────────┐
//   ServeDelta ──▶ queue ─▶ coordinator ─▶ plane ring (graph + features:  │
//     (Submit)            (coalesce +      buffer N+1 PREPARES while      │
//                          route by        buffer N is absorbed)          │
//                          u1 range,        │ read-only hand-off          │
//                          assign      ┌────┴────┬─────────┐              │
//                          global      ▼         ▼         ▼              │
//                          link    executor 0 executor 1  ...             │
//                          ids)    ModelShard ModelShard (persistent      │
//                                      │         │         threads)       │
//                                      ▼         ▼   per-shard publish    │
//                                   AlignmentService per shard ───────────┼─▶ ShardRouter
//                       └──────────────────────────────────────────────── ┘  (QueryBackend)
//
// Stage 1 (coordinator): validate → graph apply → SpGEMM refresh → route.
// Stage 2 (shard executors): downdate/replace/append rows → PU realign →
// snapshot publish, one persistent thread per shard (mailbox + condition
// variable, started once at StartBackground, joined at Stop — steady-state
// drains spawn zero threads).
//
// The pipeline: the plane is a ring of pipeline_depth + 1 buffers. Drain
// N's slices absorb against buffer N mod (d+1) while the coordinator
// catches buffer (N+1) mod (d+1) up (replaying the drains it missed from a
// short graph-delta history) and prepares drain N+1 on it. Acquiring a
// still-busy buffer blocks the coordinator — that wait is the backpressure
// (counted in IngestStats::pipeline_stalls), and with depth 0 (one buffer)
// it degenerates to the strictly serial coordinator. Shards publish their
// epochs independently as each slice completes — there is no whole-drain
// barrier; the router's epoch() = slowest shard already tolerates the
// skew, and each shard still sees every drain in submission order, so
// published epochs are bitwise-identical to the serial schedule at every
// depth. (Replaying a drain onto a buffer may mark a SUPERSET of the
// serial dirty columns; that is harmless because the replace pass
// value-compares each row against the design matrix before absorbing.)
//
// Model semantics: each shard trains the PU alternation on its own slice.
// Every shard's model equals an independent plane + ModelShard pipeline
// run over that slice alone — the plane's feature state depends only on
// the graph, never on the candidate set (proven epoch by epoch at
// N ∈ {1, 2, 4}, on grow-only and churned streams, by the equivalence
// suite). With one shard the slice is the whole candidate set; with N
// shards sharding trades cross-shard one-to-one coupling on
// second-network users for shard-parallel ingest.
//
// Global link ids are assigned at drain time, in submission order across
// all shards, so ids are stable across shard counts and the router's
// merged answers are comparable run-to-run.
//
// Failure model: a batch that fails validation (bad graph delta, bad
// candidate endpoint) is rejected before anything mutates. ApplyOnce also
// rejects a bad removal up front — a pair its owning shard does not
// serve, or one pair named twice — because every shard resolves its
// routed removals (ModelShard::ResolveRemovals) before the plane applies
// the batch. Background drains still catch a bad removal only at absorb
// time, on the shard's executor. That surfaces as a sticky error, not an
// abort: PrepareDrain advances the global id counter before dispatch, so
// no later batch reuses the ids the failed drain had stamped. Recovering
// from it stays with the ROADMAP item on recoverable failures. A
// model-side failure inside a shard makes the background status sticky
// the same way — up to pipeline_depth later drains may already sit in
// executor mailboxes when it surfaces; their absorbs are skipped (the
// read side keeps serving every shard's last published epoch) and
// everything submitted after is discarded at drain time.

#ifndef ACTIVEITER_SERVE_SHARD_H_
#define ACTIVEITER_SERVE_SHARD_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/graph/partition.h"
#include "src/serve/ingestor.h"
#include "src/serve/router.h"

namespace activeiter {

/// Splits one incoming batch into per-shard batches: the graph delta is
/// replicated to every shard (slices must stay aligned with the shared
/// plane), new candidates go to the shard owning their first endpoint,
/// and each candidate is stamped with a global link id starting at
/// `first_global_id`. Candidate removals route by the same first-endpoint
/// rule — pairs, not ids, so no cross-shard id map is needed. The
/// incoming batch must not carry ids already.
std::vector<ServeDelta> RouteServeDelta(const ServeDelta& delta,
                                        const ShardPartition& partition,
                                        size_t first_global_id);

/// A plane ring + N ModelShards over disjoint candidate slices plus the
/// ShardRouter serving them. Lifecycle: Start → ApplyOnce |
/// StartBackground/Submit/Flush/Stop; queries go through backend().
class ShardedIngestor {
 public:
  /// Takes ownership of the initial state and splits it across
  /// `options.partition.num_shards` shards. The pair and the labeled
  /// bridge L+ live once per plane buffer (pipeline_depth + 1 of them);
  /// candidate ownership follows the partition.
  ShardedIngestor(AlignedPair pair, std::vector<AnchorLink> train_anchors,
                  CandidateLinkSet candidates, IngestorOptions options = {});

  ~ShardedIngestor();

  ShardedIngestor(const ShardedIngestor&) = delete;
  ShardedIngestor& operator=(const ShardedIngestor&) = delete;

  /// Starts every shard against the primary plane (one full feature
  /// refresh total; one Gram factorisation per shard), publishes epoch 0
  /// on all of them, and clones the extra pipeline plane buffers.
  Status Start();

  /// Routes one batch and applies it synchronously, shard after shard.
  /// Deterministic; shard epochs stay in lock-step and every plane buffer
  /// advances together. A batch rejected by validation or by a shard's
  /// removal lookup leaves the plane and every shard untouched.
  Status ApplyOnce(const ServeDelta& delta);

  /// Background ingest: one coordinator thread that drains the queue
  /// (coalescing per the drain policy) and prepares plane buffers, plus
  /// one persistent executor thread per shard absorbing the slices.
  void StartBackground();

  /// Enqueues a batch. The batch must not carry global link ids — this
  /// layer assigns them, in submission order, at drain time. Blocks when
  /// options().submit_queue_limit batches are already queued
  /// (backpressure; counted as a pipeline stall).
  void Submit(ServeDelta delta);

  /// Blocks until every submitted batch has been applied and published.
  void Flush();

  /// Drains the queue and the executor mailboxes, joins the coordinator
  /// and every executor, and catches the primary plane up (idempotent).
  void Stop();

  /// First error reported by the coordinator (sticky; batches submitted
  /// after an error are discarded).
  Status background_status() const;

  /// The query surface. Valid for the ingestor's lifetime; safe for any
  /// number of concurrent readers.
  const QueryBackend& backend() const { return *router_; }
  const ShardRouter& router() const { return *router_; }

  size_t num_shards() const { return shards_.size(); }
  const ShardPartition& partition() const { return options_.partition; }
  const IngestorOptions& options() const { return options_; }

  /// Ingest accounting. Drain-level counters (epochs_published,
  /// deltas_applied, coalesced_batches) advance in lock-step on every
  /// shard and are reported once; per-row counters (rows_appended,
  /// rows_removed, rows_replaced, rank_one_updates, full_factorisations)
  /// are summed across shards — full_factorisations equals num_shards
  /// after Start(). pipeline_stalls / max_inflight_planes are
  /// coordinator-level: max_inflight_planes ≥ 2 proves prepare/absorb
  /// actually overlapped; serial operation reports 0 / 1.
  IngestStats stats() const;
  IngestStats shard_stats(size_t shard) const;

  // Per-shard internals for tests and equivalence comparisons. NOT safe
  // while the coordinator runs.
  const AlignedPair& pair() const { return plane_.pair(); }
  const ModelShard& shard(size_t shard) const;
  const AlignmentService& shard_service(size_t shard) const;

 private:
  class ShardExecutor;

  /// One routed slice travelling from the coordinator to a shard
  /// executor. The plane buffer it points at stays immutable until every
  /// shard of its drain completed (the ring acquisition guarantees it).
  struct SliceTask {
    const FeaturePlane* plane = nullptr;
    std::shared_ptr<const std::vector<size_t>> dirty_columns;
    ServeDelta slice;
    size_t submitted_batches = 0;
    uint64_t seq = 0;
  };

  /// Completion bookkeeping of one dispatched drain.
  struct DrainTicket {
    uint64_t seq = 0;
    size_t buffer = 0;
    size_t remaining = 0;   // shards still absorbing
    size_t submitted = 0;   // Submit() calls this drain coalesces
  };

  void WorkerLoop();
  /// Deterministic path: validate → route → resolve removals → advance
  /// EVERY plane buffer → refresh the primary → shard applies, sequential
  /// on this thread.
  Status ApplyMerged(const ServeDelta& merged, size_t submitted_batches);
  /// Pipelined path: acquire the drain's ring buffer (blocking while it
  /// is still being absorbed), replay missed drains onto it, prepare the
  /// new drain and hand the slices to the executors. Returns without
  /// waiting for the absorbs.
  Status PrepareDrain(const ServeDelta& merged, size_t submitted_batches);
  /// Replays graph deltas the buffer missed while other buffers ran.
  void CatchUpBuffer(size_t buffer);
  void TrimHistory();
  /// Executor callback: a shard finished (or skipped) drain `seq`.
  void OnSliceDone(uint64_t seq, const Status& status);

  IngestorOptions options_;
  FeaturePlane plane_;  // ring_[0]; the buffer tests/readers introspect
  /// Submitted-but-unpublished batches; null when metrics are detached.
  Gauge* epoch_lag_ = nullptr;
  Gauge* pipeline_inflight_ = nullptr;   // "ingest.pipeline.depth"
  Counter* pipeline_stall_counter_ = nullptr;
  std::vector<std::unique_ptr<AlignmentService>> services_;
  std::vector<std::unique_ptr<ModelShard>> shards_;
  std::unique_ptr<ShardRouter> router_;
  size_t next_global_id_ = 0;

  // The plane ring (built at Start): pipeline_depth extra clones of the
  // primary plane, used round-robin by drain sequence number.
  std::vector<std::unique_ptr<FeaturePlane>> clone_planes_;
  std::vector<FeaturePlane*> ring_;
  std::vector<uint64_t> ring_applied_;   // last drain seq each buffer holds
  std::vector<bool> ring_busy_;          // being absorbed (guarded by mu_)
  // Committed drains a stale buffer may still need to replay; trimmed to
  // min(ring_applied_), so it never holds more than ring_.size() entries
  // in background operation.
  std::deque<std::pair<uint64_t, PairDelta>> graph_history_;
  uint64_t drain_seq_ = 0;               // committed drains

  // Persistent per-shard absorb threads (live between StartBackground
  // and Stop).
  std::vector<std::unique_ptr<ShardExecutor>> executors_;
  std::deque<DrainTicket> tickets_;      // guarded by mu_

  // Coordinator queue.
  std::thread worker_;
  mutable std::mutex mu_;
  std::condition_variable cv_;           // queue not empty / stopping
  std::condition_variable idle_cv_;      // queue drained + drains landed
  std::condition_variable plane_free_cv_;   // a ring buffer was released
  std::condition_variable queue_space_cv_;  // Submit backpressure
  std::deque<ServeDelta> queue_;
  size_t in_flight_ = 0;                 // batches drained, not published
  size_t inflight_drains_ = 0;           // drains between dispatch/publish
  uint64_t max_inflight_ = 0;            // high-water of inflight_drains_
  uint64_t stall_count_ = 0;             // backpressure waits
  bool stopping_ = false;
  bool thread_running_ = false;
  Status background_status_ = Status::OK();
};

}  // namespace activeiter

#endif  // ACTIVEITER_SERVE_SHARD_H_
