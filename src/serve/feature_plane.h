// FeaturePlane: the graph-and-features half of the ingest pipeline.
//
// Everything whose cost depends on the WHOLE graph — the aligned pair,
// the delta-aware feature engine, the SpGEMM product cache — lives here,
// behind a single-writer surface:
//
//   Apply(PairDelta)  — atomic graph growth + dirty-token bookkeeping
//   Refresh()         — recompute dirty diagrams, migrate clean ones
//   Extract / Column / RowFor — read the refreshed proximity tables
//
// The plane is what makes sharded ingest scale: N ModelShards (see
// ingestor.h) SHARE one plane, so per-batch graph work and diagram
// recomputation run once per drain instead of once per shard. After
// Refresh() the read surface (Column / RowFor / pair) is immutable until
// the next Apply, so any number of shard threads may consume it
// concurrently — the proximity tables are plain const data.
//
// Writer discipline: exactly one thread calls Apply/Refresh/Extract at a
// time, and never concurrently with readers. ShardedIngestor's
// coordinator upholds this by construction: it writes a plane buffer only
// while no shard absorbs from it.

#ifndef ACTIVEITER_SERVE_FEATURE_PLANE_H_
#define ACTIVEITER_SERVE_FEATURE_PLANE_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/graph/aligned_pair.h"
#include "src/graph/incidence.h"
#include "src/metadiagram/delta_features.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace activeiter {

/// Owns the aligned pair and the delta-aware feature engine.
class FeaturePlane {
 public:
  /// Takes ownership of the graph state. `train_anchors` is the fixed
  /// labeled bridge L+ (model input; revealed anchors are oracle data).
  FeaturePlane(AlignedPair pair, std::vector<AnchorLink> train_anchors,
               FeatureExtractorOptions options = {});

  // The extractor holds a pointer to pair_; the plane must not move.
  FeaturePlane(const FeaturePlane&) = delete;
  FeaturePlane& operator=(const FeaturePlane&) = delete;

  /// Deep copy for the pipelined coordinator's plane ring: same graph
  /// state and anchor bridge, a fresh (warmed) feature engine. The clone
  /// runs its first Refresh() before returning, so subsequent refreshes
  /// are delta-bounded exactly like the original's. Obs sinks carry over.
  std::unique_ptr<FeaturePlane> Clone() const;

  const AlignedPair& pair() const { return pair_; }
  const std::vector<AnchorLink>& train_anchors() const {
    return train_anchors_;
  }

  /// Attaches observability sinks (spans around Apply/Refresh/Extract).
  /// Called by the owning ingestor before Start(); detached by default.
  void set_obs(ObsSinks obs) { obs_ = obs; }

  /// Feature columns including the trailing bias.
  size_t dimension() const { return extractor_.dimension(); }

  /// Grows the graph atomically (nothing mutates on error) and marks the
  /// touched relations dirty. Cheap; recomputation waits for Refresh().
  Status Apply(const PairDelta& delta);

  /// Brings the proximity tables up to date; returns the dirty feature
  /// column indices, ascending (all columns on the first call).
  std::vector<size_t> Refresh();

  /// Full |H| × dimension() design matrix over `candidates` (runs
  /// Refresh() implicitly when pending). Writer-side only.
  Matrix Extract(const CandidateLinkSet& candidates);

  /// Column k over `candidates` / one feature row. Pure reads of the
  /// refreshed tables — safe from any number of threads between writes.
  Vector Column(size_t k, const CandidateLinkSet& candidates) const {
    return extractor_.Column(k, candidates);
  }
  Vector RowFor(NodeId u1, NodeId u2) const {
    return extractor_.RowFor(u1, u2);
  }

  const DeltaFeatureExtractor& extractor() const { return extractor_; }

 private:
  AlignedPair pair_;
  std::vector<AnchorLink> train_anchors_;
  FeatureExtractorOptions options_;
  DeltaFeatureExtractor extractor_;
  ObsSinks obs_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_SERVE_FEATURE_PLANE_H_
