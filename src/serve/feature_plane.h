// FeaturePlane: the graph-and-features half of the ingest pipeline.
//
// Everything whose cost depends on the WHOLE graph — the aligned pair,
// the delta-aware feature engine, the SpGEMM product cache — lives here,
// behind a single-writer surface:
//
//   Apply(PairDelta)  — atomic graph growth + dirty-token bookkeeping
//   Refresh()         — recompute dirty diagrams, migrate clean ones
//   tables()          — the refreshed proximity tables, immutable
//
// The plane is what makes sharded ingest scale: N ModelShards (see
// ingestor.h) SHARE one plane, so per-batch graph work and diagram
// recomputation run once per drain instead of once per shard. Each
// Refresh() publishes a new ProximityTables object and never mutates an
// old one, and the tables are all a shard reads from the graph side when
// it absorbs a drain. So any number of shard threads may absorb drain N
// from the tables they hold while the writer applies and refreshes drain
// N+1 on the plane.
//
// Writer discipline: exactly one thread calls Apply/Refresh at a time,
// and nothing else reads the pair, the anchors or the engine while it
// does. ShardedIngestor's coordinator is that thread; its shard executors
// read only the tables handed to them.

#ifndef ACTIVEITER_SERVE_FEATURE_PLANE_H_
#define ACTIVEITER_SERVE_FEATURE_PLANE_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/graph/aligned_pair.h"
#include "src/metadiagram/features.h"
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

  const AlignedPair& pair() const { return pair_; }
  const std::vector<AnchorLink>& train_anchors() const {
    return train_anchors_;
  }

  /// Attaches observability sinks (spans around Apply and Refresh).
  /// Called by the owning ingestor before Start(); detached by default.
  void set_obs(ObsSinks obs) { obs_ = obs; }

  /// Grows the graph atomically (nothing mutates on error) and marks the
  /// touched relations dirty. Cheap; recomputation waits for Refresh().
  Status Apply(const PairDelta& delta);

  /// Brings the proximity tables up to date; returns the dirty feature
  /// column indices, ascending (all columns on the first call).
  std::vector<size_t> Refresh();

  /// The proximity tables of the last Refresh() (which must be up to
  /// date). Immutable: safe to read from any number of threads, also
  /// while the writer moves the plane on.
  std::shared_ptr<const ProximityTables> tables() const {
    return extractor_.tables();
  }

 private:
  AlignedPair pair_;
  std::vector<AnchorLink> train_anchors_;
  FeatureExtractor extractor_;
  ObsSinks obs_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_SERVE_FEATURE_PLANE_H_
