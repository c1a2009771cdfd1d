// The ingest building blocks of the online subsystem.
//
// The write side is split along the axis that matters for sharding:
//
//   FeaturePlane    (feature_plane.h) — whole-graph state: aligned pair +
//                                       delta feature engine. Cost scales
//                                       with the GRAPH, not the candidates.
//   ModelShard      (here)            — per-slice state: candidates,
//                                       incidence, design matrix X,
//                                       AlignmentSession, PU alternation,
//                                       snapshot chain. Cost scales with
//                                       the SLICE.
//   ShardedIngestor (shard.h)         — the coordinator: one plane, N
//                                       shards and the background queue.
//
// A ServeDelta batch advances a (plane, shard) pair in six steps:
//
//   1. plane.Apply              (atomic graph change + dirty tokens; grows
//                                AND shrinks — edge removals and anchor
//                                retractions apply validate-then-commit)
//   2. plane.Refresh            (only dirty diagrams recompute; clean
//                                intermediates migrate via padding; the
//                                refresh publishes new immutable
//                                ProximityTables)
//   3. gather X                 (withdrawn candidates, index entries and
//                                pins compact out, new ones append; then
//                                ProximityTables::Gather builds X anew in
//                                CSR from those tables alone)
//   4. refit                    (RidgePrepared over that CSR X: its column
//                                copy, one Gram product and one Cholesky
//                                factorisation of I + cG, trivial at
//                                d ≈ 30)
//   5. re-run the PU alternation (IterAligner against the refit session)
//   6. BuildSnapshot + Publish  (atomic epoch swap in the service)
//
// Steps 1–2 are plane work (once per drain, however many shards); steps
// 3–6 are shard work (per slice, shard-parallel — see shard.h), and they
// read nothing of the plane but the drain's tables, so the plane may
// already run steps 1–2 of the next drain meanwhile. X is
// bitwise equal to a fresh extraction over the mutated pair, and step 4
// forms G and L from it exactly as a fresh batch build does, so every
// published w, score vector and label vector is BITWISE equal to a fresh
// build over the same candidates — on grow, replace and churn alike.
// stats().full_factorisations counts one factorisation per shard per
// published epoch.
//
// The coordinator applies deltas either synchronously (ApplyOnce —
// deterministic, used by tests and epoch-by-epoch comparisons) or on its
// background thread (StartBackground + Submit + Flush). The two modes
// must not be mixed while the thread runs. Under DrainPolicy::kCoalesce
// (the default) the background thread merges everything queued at
// wake-up into ONE batch, so a burst of B submits costs one realign + one
// published epoch instead of B — IngestStats::coalesced_batches counts
// the submits absorbed this way.

#ifndef ACTIVEITER_SERVE_INGESTOR_H_
#define ACTIVEITER_SERVE_INGESTOR_H_

#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/align/iter_aligner.h"
#include "src/align/session.h"
#include "src/common/status.h"
#include "src/graph/aligned_pair.h"
#include "src/graph/incidence.h"
#include "src/graph/partition.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/feature_plane.h"
#include "src/serve/service.h"

namespace activeiter {

/// One ingest batch: graph growth plus the candidate pairs that start
/// being served with it. Candidate endpoints may reference nodes added by
/// the same batch. `candidate_ids` carries the global link id of each new
/// candidate (parallel to `new_candidates`, strictly increasing). Only
/// routed batches carry it: RouteServeDelta stamps the ids, so a
/// candidate keeps one id no matter which shard serves it, and batches
/// submitted to the coordinator leave it empty.
struct ServeDelta {
  PairDelta graph;
  std::vector<std::pair<NodeId, NodeId>> new_candidates;
  std::vector<size_t> candidate_ids;
  /// Candidate pairs withdrawn from serving (un-revealed). Identified by
  /// endpoint pair, not link id, so the sharded router can compute the
  /// owning shard without an id map. Each pair must currently be served.
  std::vector<std::pair<NodeId, NodeId>> removed_candidates;

  bool empty() const {
    return graph.empty() && new_candidates.empty() &&
           removed_candidates.empty();
  }
};

/// Concatenates a burst of batches into one equivalent batch: node growth,
/// edges, anchors and candidates in submission order. Applying the merged
/// batch yields the same graph, candidate set and design matrix as
/// applying the parts one by one — in one epoch instead of many. Merging
/// happens before routing, so no input may carry candidate_ids (checked).
///
/// Opposing operations on the same key COLLAPSE during the merge: an edge
/// removal cancels a pending same-key addition (and vice versa), an anchor
/// retraction cancels the pending reveal of the same link, and a candidate
/// removal cancels the pending addition of the same pair — so a
/// remove-then-re-add churn burst costs nothing at absorption time.
ServeDelta MergeServeDeltas(std::vector<ServeDelta> deltas);

/// Knobs of the serving model. Labels are selected greedily
/// (IterAlignerOptions' default).
struct ServeOptions {
  /// Ridge loss weight and decision threshold of the PU alternation.
  double ridge_c = 1.0;
  double threshold = 0.0;
  /// Feature engine options (catalog choice + kernel pool).
  FeatureExtractorOptions features;
};

/// How the background thread drains its queue.
enum class DrainPolicy {
  /// Merge everything queued at wake-up into one batch: one realign + one
  /// published epoch per drain, however deep the backlog.
  kCoalesce,
  /// One epoch per submitted batch (the pre-coalescing behaviour; every
  /// submit costs a full realign).
  kPerDelta,
};

/// Construction-time options of the ingest layer.
struct IngestorOptions {
  /// Model knobs, forwarded to the alternation and feature engine.
  ServeOptions serve;
  /// Background-queue drain policy.
  DrainPolicy drain = DrainPolicy::kCoalesce;
  /// Shard layout: ShardedIngestor fans out over partition.num_shards
  /// slices.
  ShardPartition partition;
  /// When non-zero, ShardedIngestor::Submit blocks while the background
  /// queue holds this many undrained batches — backpressure so a fast
  /// producer cannot outrun the shards unboundedly. Each blocked Submit
  /// counts one pipeline stall. 0 (default) means unbounded.
  size_t submit_queue_limit = 0;
  /// Observability sinks. Detached (null) by default: every instrument
  /// site in the ingest/query pipeline reduces to one branch. When
  /// attached, the write side emits a span per ingest stage
  /// (submit → drain/coalesce → plane refresh → apply_slice → publish),
  /// keeps the "serve.ingest.epoch_lag" gauge (submitted-but-unpublished
  /// batches) current, and the services record per-query latency
  /// histograms.
  ObsSinks obs;
};

/// Cumulative ingest accounting (all fields monotone).
struct IngestStats {
  uint64_t epochs_published = 0;
  uint64_t deltas_applied = 0;
  uint64_t coalesced_batches = 0;     // submits absorbed into a shared epoch
  uint64_t rows_appended = 0;
  uint64_t rows_replaced = 0;
  uint64_t rows_removed = 0;          // withdrawn candidate rows
  uint64_t full_factorisations = 0;   // one refit per published epoch
  // Pipeline accounting (coordinator-level; ModelShard leaves them 0).
  uint64_t pipeline_stalls = 0;       // backpressure waits (drain/queue)
  uint64_t max_inflight_planes = 0;   // high-water drains in flight, from
                                      // prepare to the last shard's
                                      // absorb (at most 2); a value of 2
                                      // proves prepare/absorb overlapped.
                                      // ApplyOnce alone reports 1.

  /// Element-wise sum (aggregating shard stats); `max_inflight_planes`
  /// takes the max, not the sum.
  IngestStats& operator+=(const IngestStats& other);
};

/// One shard's model state: a disjoint candidate slice with its own
/// incidence index, design matrix, pin state, PU alternation and snapshot
/// chain. Starts from a FeaturePlane it does not own and then absorbs
/// each drain from that drain's immutable ProximityTables; distinct
/// shards share nothing mutable, so their ApplySlice calls may run
/// concurrently (each against its own slice).
class ModelShard {
 public:
  /// `service` must outlive the shard. `global_ids` maps each initial
  /// candidate to its global link id, strictly increasing (what
  /// PartitionCandidates produces).
  ModelShard(CandidateLinkSet candidates, std::vector<size_t> global_ids,
             AlignmentService* service, IngestorOptions options);

  // index_ borrows candidates_; keep the shard pinned in memory.
  ModelShard(const ModelShard&) = delete;
  ModelShard& operator=(const ModelShard&) = delete;

  /// Refreshes the plane, gathers X over the initial slice from its
  /// tables, builds and publishes epoch 0, and keeps the plane's anchor
  /// bridge L+ for pinning.
  Status Start(FeaturePlane& plane);

  /// Applies this shard's slice of a batch from the proximity tables the
  /// batch's Refresh() published: the slice's withdrawn candidates leave,
  /// its new candidates join, X is gathered anew over the whole slice,
  /// then refit, realign, publish. The slice carries the global id of
  /// every new candidate (what RouteServeDelta stamps).
  /// `submitted_batches` is the number of Submit() calls the slice
  /// coalesces (1 for ApplyOnce).
  Status ApplySlice(const ProximityTables& tables, const ServeDelta& slice,
                    size_t submitted_batches);
  /// The same, from the tables of a plane refreshed for this batch. The
  /// dirty-column argument is unused: the benchmark's serial replay still
  /// passes Refresh()'s result here.
  Status ApplySlice(const FeaturePlane& plane,
                    const std::vector<size_t>& /*dirty_columns*/,
                    const ServeDelta& slice, size_t submitted_batches) {
    return ApplySlice(*plane.tables(), slice, submitted_batches);
  }

  /// Local ids of the served candidate pairs `removed`, ascending.
  /// NotFound when this shard does not serve a pair or a pair is named
  /// twice. Pure: the coordinator resolves every shard's removals before
  /// the plane applies a batch, and ApplySlice resolves through it too.
  Result<std::vector<size_t>> ResolveRemovals(
      const std::vector<std::pair<NodeId, NodeId>>& removed) const;

  IngestStats stats() const;

  bool started() const { return started_; }
  const CandidateLinkSet& candidates() const { return candidates_; }
  const SparseMatrix& design() const { return *x_; }
  /// Local candidate id → global link id.
  const std::vector<size_t>& global_ids() const { return global_ids_; }
  uint64_t epoch() const { return epoch_; }

 private:
  /// Pins the candidates in [first, size) that ARE a train anchor (L+).
  void PinLabeled(size_t first);
  /// Refits a session over X (its column copy, one Gram product, one
  /// factorisation), runs the PU alternation against it and publishes the
  /// next snapshot.
  Status Publish();

  CandidateLinkSet candidates_;
  AlignmentService* service_;
  IngestorOptions options_;  // options_.obs drives the stage spans below

  std::unique_ptr<IncidenceIndex> index_;
  // Gathered anew each drain; the published session's ridge shares it.
  std::shared_ptr<const SparseMatrix> x_ = std::make_shared<SparseMatrix>();
  std::vector<Pin> pins_;  // per row of x_: L+ positives, the rest free
  std::unordered_set<uint64_t> labeled_;  // L+ pair keys, kept at Start
  IterAligner aligner_;
  std::vector<size_t> global_ids_;
  size_t next_global_id_ = 0;  // one past the highest global id held
  uint64_t epoch_ = 0;
  bool started_ = false;

  IngestStats stats_;
  mutable std::mutex stats_mu_;
};

/// Validates that every candidate endpoint of `delta` falls inside the
/// user universes AFTER the batch's own node growth — the coordinator's
/// first validate-before-mutate step.
Status ValidateCandidateEndpoints(const AlignedPair& pair,
                                  const ServeDelta& delta);

}  // namespace activeiter

#endif  // ACTIVEITER_SERVE_INGESTOR_H_
