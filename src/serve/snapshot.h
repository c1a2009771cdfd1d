// The immutable unit of the snapshot-swap serving protocol.
//
// Query threads and the ingest thread never share mutable state: the
// ingestor assembles a fully self-contained ModelSnapshot (no pointers
// into the live session, candidate set or graph), publishes it with one
// atomic shared_ptr store, and readers that loaded the previous epoch keep
// using it safely until their last reference drops. See service.h for the
// swap itself.
//
// NOTE: this header is write-side implementation detail. Query callers
// program against src/serve/backend.h (QueryBackend + ScoredLink) and
// never touch a raw ModelSnapshot.

#ifndef ACTIVEITER_SERVE_SNAPSHOT_H_
#define ACTIVEITER_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/incidence.h"
#include "src/graph/types.h"
#include "src/linalg/vector.h"
#include "src/serve/backend.h"

namespace activeiter {

/// One published model epoch. Immutable after construction; fully owns its
/// data. All vectors are indexed by LOCAL link id (position in the owning
/// slice's candidate set); `global_ids` maps local → global for the query
/// surface. A snapshot built without ids (a whole candidate set, outside
/// the shard layer) keeps `global_ids` empty: local and global ids
/// coincide.
struct ModelSnapshot {
  uint64_t epoch = 0;
  std::vector<std::pair<NodeId, NodeId>> links;  // candidate pairs by id
  Vector scores;                                 // ŷ = Xw over links
  Vector y;                                      // inferred {0,1} labels
  Vector w;                                      // model weights
  // Local id → global link id; empty means identity.
  std::vector<size_t> global_ids;
  // Per-user candidate link ids. `links_of_first` is pre-ranked in
  // serving order — (score desc, link id asc) — at build time, so TopK
  // is an O(k) prefix copy and never sorts on the query path.
  // `links_of_second` keeps the incidence order of the index.
  std::vector<std::vector<size_t>> links_of_first;
  std::vector<std::vector<size_t>> links_of_second;

  size_t size() const { return links.size(); }
  size_t users_first() const { return links_of_first.size(); }
  size_t users_second() const { return links_of_second.size(); }

  /// The global link id exported for local id `link_id`.
  size_t GlobalId(size_t link_id) const {
    return global_ids.empty() ? link_id : global_ids[link_id];
  }

  /// Assembles the scored view of one LOCAL link id (the exported
  /// ScoredLink carries the global id).
  ScoredLink At(size_t link_id) const;
};

/// Deep-copies the queryable state of one alignment solution into a
/// snapshot. `scores`/`y` are indexed by the candidate ids of `index`;
/// `global_ids` maps those local ids to global link ids (pass {} for the
/// identity mapping over a whole candidate set).
ModelSnapshot BuildSnapshot(uint64_t epoch, const IncidenceIndex& index,
                            Vector scores, Vector y, Vector w,
                            std::vector<size_t> global_ids = {});

}  // namespace activeiter

#endif  // ACTIVEITER_SERVE_SNAPSHOT_H_
