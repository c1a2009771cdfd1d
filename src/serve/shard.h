// ShardedIngestor: the write side of the sharded serve layer, run as a
// two-stage software pipeline.
//
//                       ┌──────────────── ShardedIngestor ────────────────┐
//   ServeDelta ──▶ queue ─▶ coordinator ─▶ plane (graph + features:       │
//     (Submit)            (coalesce +      PREPARES drain N+1 while the   │
//                          route by        shards absorb drain N)         │
//                          u1 range,        │ drain N's immutable tables  │
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
// Stage 2 (shard executors): remove/append candidates → gather X from the
// drain's tables → refit → PU realign → snapshot publish, one persistent
// thread per shard (mailbox + condition variable, started once at
// StartBackground, joined at Stop — steady-state drains spawn zero
// threads).
//
// The pipeline: the coordinator owns ONE plane. Every Refresh() publishes
// an immutable ProximityTables object, and every slice the coordinator
// hands to an executor carries its drain's tables — the only graph-side
// state a shard reads while it absorbs. So the coordinator applies and
// refreshes drain N+1 on the plane while the executors still absorb drain
// N. At most two drains are in flight (from prepare to the last shard's
// absorb): preparing a third waits until the oldest is absorbed — that
// wait is the backpressure, counted in IngestStats::pipeline_stalls.
// Shards publish their epochs independently as each slice completes —
// there is no whole-drain barrier; the router's epoch() = slowest shard
// already tolerates the skew, and each shard still sees every drain in
// submission order, against that drain's own tables, so published epochs
// are bitwise-identical to the serial schedule.
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
// the same way — one later drain may already sit in executor mailboxes
// when it surfaces, and the coordinator may be preparing another; their
// absorbs are skipped (the read side keeps serving every shard's last
// published epoch) and everything submitted after is discarded at drain
// time.

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

/// One FeaturePlane + N ModelShards over disjoint candidate slices plus
/// the ShardRouter serving them. Lifecycle: Start → ApplyOnce |
/// StartBackground/Submit/Flush/Stop; queries go through backend().
class ShardedIngestor {
 public:
  /// Takes ownership of the initial state and splits it across
  /// `options.partition.num_shards` shards. The pair and the labeled
  /// bridge L+ live once, in the plane; candidate ownership follows the
  /// partition.
  ShardedIngestor(AlignedPair pair, std::vector<AnchorLink> train_anchors,
                  CandidateLinkSet candidates, IngestorOptions options = {});

  ~ShardedIngestor();

  ShardedIngestor(const ShardedIngestor&) = delete;
  ShardedIngestor& operator=(const ShardedIngestor&) = delete;

  /// Starts every shard against the plane (one full feature refresh
  /// total; one Gram factorisation per shard) and publishes epoch 0 on
  /// all of them.
  Status Start();

  /// Routes one batch and applies it synchronously, shard after shard.
  /// Deterministic; shard epochs stay in lock-step. A batch rejected by
  /// validation or by a shard's removal lookup leaves the plane and every
  /// shard untouched.
  Status ApplyOnce(const ServeDelta& delta);

  /// Background ingest: one coordinator thread that drains the queue
  /// (coalescing per the drain policy) and prepares each drain on the
  /// plane, plus one persistent executor thread per shard absorbing the
  /// slices.
  void StartBackground();

  /// Enqueues a batch. The batch must not carry global link ids — this
  /// layer assigns them, in submission order, at drain time. Blocks when
  /// options().submit_queue_limit batches are already queued
  /// (backpressure; counted as a pipeline stall).
  void Submit(ServeDelta delta);

  /// Blocks until every submitted batch has been applied and published.
  void Flush();

  /// Drains the queue and the executor mailboxes and joins the
  /// coordinator and every executor (idempotent). Every drain was
  /// prepared on the plane, so it is current afterwards.
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
  /// shard and are reported once; per-shard counters (rows_appended,
  /// rows_removed, rows_replaced, full_factorisations) are summed across
  /// shards — every shard refits once per published epoch, so
  /// full_factorisations equals num_shards × epochs_published.
  /// pipeline_stalls / max_inflight_planes are
  /// coordinator-level: max_inflight_planes = 2 proves prepare/absorb
  /// actually overlapped; ApplyOnce alone reports 0 / 1.
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
  /// executor, with its drain's tables: immutable, so the plane may move
  /// on while the slice is absorbed.
  struct SliceTask {
    std::shared_ptr<const ProximityTables> tables;
    ServeDelta slice;
    size_t submitted_batches = 0;
    uint64_t seq = 0;
  };

  /// Completion bookkeeping of one dispatched drain.
  struct DrainTicket {
    uint64_t seq = 0;
    size_t remaining = 0;   // shards still absorbing
    size_t submitted = 0;   // Submit() calls this drain coalesces
  };

  void WorkerLoop();
  /// Deterministic path: validate → route → resolve removals → plane
  /// apply and refresh → shard applies, sequential on this thread.
  Status ApplyMerged(const ServeDelta& merged, size_t submitted_batches);
  /// Pipelined path: wait while kMaxInflightDrains drains are in flight,
  /// prepare the new drain on the plane and hand its slices and tables to
  /// the executors. Returns without waiting for the absorbs.
  Status PrepareDrain(const ServeDelta& merged, size_t submitted_batches);
  /// Executor callback: a shard finished (or skipped) drain `seq`.
  void OnSliceDone(uint64_t seq, const Status& status);

  /// Drains between prepare and the last shard's absorb: the one being
  /// absorbed and the one being prepared.
  static constexpr size_t kMaxInflightDrains = 2;

  IngestorOptions options_;
  FeaturePlane plane_;  // written by the coordinator alone
  /// Submitted-but-unpublished batches; null when metrics are detached.
  Gauge* epoch_lag_ = nullptr;
  Gauge* pipeline_inflight_ = nullptr;   // "ingest.pipeline.depth"
  Counter* pipeline_stall_counter_ = nullptr;
  std::vector<std::unique_ptr<AlignmentService>> services_;
  std::vector<std::unique_ptr<ModelShard>> shards_;
  std::unique_ptr<ShardRouter> router_;
  size_t next_global_id_ = 0;
  uint64_t drain_seq_ = 0;               // dispatched background drains

  // Persistent per-shard absorb threads (live between StartBackground
  // and Stop).
  std::vector<std::unique_ptr<ShardExecutor>> executors_;
  std::deque<DrainTicket> tickets_;      // guarded by mu_

  // Coordinator queue.
  std::thread worker_;
  mutable std::mutex mu_;
  std::condition_variable cv_;           // queue not empty / stopping
  std::condition_variable idle_cv_;      // queue drained + drains landed
  std::condition_variable absorbed_cv_;   // a drain finished absorbing
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
