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
//   ShardedIngestor (shard.h)         — the coordinator: a plane ring, N
//                                       shards and the background queue.
//
// A ServeDelta batch advances a (plane, shard) pair in seven steps:
//
//   1. plane.Apply              (atomic graph change + dirty tokens; grows
//                                AND shrinks — edge removals and anchor
//                                retractions apply validate-then-commit)
//   2. plane.Refresh            (only dirty diagrams recompute; clean
//                                intermediates migrate via padding)
//   3. removed rows             (withdrawn candidates: one blocked rank-k
//                                DOWNDATE of the factor + Gram downdate,
//                                then X/candidates/index/pins compact —
//                                zero refactorisations unless the downdate
//                                goes numerically indefinite, which costs
//                                exactly one counted refactor)
//   4. replaced rows            (existing candidates whose dirty feature
//                                columns changed: Gram replace + rank-1
//                                update/downdate pair per row)
//   5. appended rows            (new candidates: feature row from the
//                                proximity tables, Gram fold-in + one
//                                rank-1 update per row)
//   6. re-run the PU alternation (IterAligner against the grown session —
//                                solves only, the factor is never rebuilt)
//   7. BuildSnapshot + Publish  (atomic epoch swap in the service)
//
// Steps 1–2 are plane work (once per drain, however many shards); steps
// 3–7 are shard work (per slice, shard-parallel — see shard.h). After
// Start()'s single Prepare no full factorisation ever runs again —
// stats().full_factorisations stays 1 per shard, proven in the
// integration tests via CholeskyFactor::TotalFactorCount.
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

/// Knobs of the serving model.
struct ServeOptions {
  /// Ridge loss weight and decision threshold of the PU alternation.
  double ridge_c = 1.0;
  double threshold = 0.0;
  SelectionAlgorithm selection = SelectionAlgorithm::kGreedy;
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
  /// Default k for query front ends when the caller does not say (e.g.
  /// serve_cli --topk 0).
  size_t default_top_k = 10;
  /// Extra feature planes the sharded coordinator may have in flight
  /// beyond the one the shards are absorbing: depth d keeps d+1 plane
  /// buffers and prepares drain N+1 (graph apply + SpGEMM refresh) WHILE
  /// the shards absorb drain N. 0 restores the strictly serial
  /// coordinator (one buffer; prepare waits for every shard). Published
  /// epochs are bitwise-identical at every depth — only the overlap
  /// changes.
  size_t pipeline_depth = 1;
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
  uint64_t rows_removed = 0;          // candidate rows downdated out
  uint64_t rank_one_updates = 0;      // factor updates + downdates
  uint64_t full_factorisations = 0;   // stays 1 after Start()
  // Pipeline accounting (coordinator-level; ModelShard leaves them 0).
  uint64_t pipeline_stalls = 0;       // backpressure waits (buffer/queue)
  uint64_t max_inflight_planes = 0;   // high-water drains in flight; a
                                      // value ≥ 2 proves prepare/absorb
                                      // overlapped. Serial mode reports 1.

  /// Element-wise sum (aggregating shard stats); `max_inflight_planes`
  /// takes the max, not the sum.
  IngestStats& operator+=(const IngestStats& other);
};

/// One shard's model state: a disjoint candidate slice with its own
/// incidence index, design matrix, RidgePrepared session, PU alternation
/// and snapshot chain. Consumes a FeaturePlane it does not own; distinct
/// shards over the same plane share nothing mutable, so their ApplySlice
/// calls may run concurrently (each against its own slice) once the plane
/// is refreshed.
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

  /// Builds and publishes epoch 0 — the only full feature gather, Gram
  /// product and Cholesky factorisation of the shard's lifetime. The
  /// plane refreshes lazily on the first shard that starts.
  Status Start(FeaturePlane& plane);

  /// Applies this shard's slice of a batch against an already-refreshed
  /// plane: removed rows downdated out for the slice's withdrawn
  /// candidates, replaced rows for `dirty_columns`, appended rows for the
  /// slice's new candidates, realign, publish. The slice carries the
  /// global id of every new candidate (what RouteServeDelta stamps).
  /// `submitted_batches` is the number of Submit() calls the slice
  /// coalesces (1 for ApplyOnce).
  Status ApplySlice(const FeaturePlane& plane,
                    const std::vector<size_t>& dirty_columns,
                    const ServeDelta& slice, size_t submitted_batches);

  /// Local ids of the served candidate pairs `removed`, ascending.
  /// NotFound when this shard does not serve a pair or a pair is named
  /// twice. Pure: the coordinator resolves every shard's removals before
  /// the plane applies a batch, and ApplySlice resolves through it too.
  Result<std::vector<size_t>> ResolveRemovals(
      const std::vector<std::pair<NodeId, NodeId>>& removed) const;

  IngestStats stats() const;

  bool started() const { return started_; }
  const CandidateLinkSet& candidates() const { return candidates_; }
  const Matrix& design() const { return x_; }
  /// Local candidate id → global link id.
  const std::vector<size_t>& global_ids() const { return global_ids_; }
  uint64_t epoch() const { return epoch_; }

 private:
  Status Publish();

  CandidateLinkSet candidates_;
  AlignmentService* service_;
  IngestorOptions options_;  // options_.obs drives the stage spans below

  std::unique_ptr<IncidenceIndex> index_;
  Matrix x_;
  std::unique_ptr<AlignmentSession> session_;
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
