// Storage for one attributed heterogeneous social network (Definition 1).
//
// Nodes of each type live in their own contiguous id space [0, count).
// Edges are stored per relation type as (src, dst) pairs and can be
// exported as CSR adjacency matrices, which is the representation the
// meta-diagram engine consumes.

#ifndef ACTIVEITER_GRAPH_HETERO_NETWORK_H_
#define ACTIVEITER_GRAPH_HETERO_NETWORK_H_

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/graph/schema.h"
#include "src/graph/types.h"
#include "src/linalg/sparse.h"

namespace activeiter {

/// One batch of node growth: `count` new nodes of `type` appended to that
/// type's contiguous id space.
struct NodeDelta {
  NodeType type = NodeType::kUser;
  size_t count = 0;
};

/// One new typed edge. Endpoint ids may reference nodes added by the same
/// delta batch (they are validated against the post-growth id ranges).
struct EdgeDelta {
  RelationType relation = RelationType::kFollow;
  NodeId src = 0;
  NodeId dst = 0;
};

/// One batch of change for a single network: nodes first, then added
/// edges, then removed edges. This is the unit the online ingestor
/// consumes — "new users/links arriving online, old links dropping off" as
/// a value the serving layer can queue, validate and apply atomically.
///
/// Removal semantics: each entry in `removed_edges` deletes ONE stored
/// occurrence of that (relation, src, dst) edge. Since adjacency matrices
/// binarize duplicates, removing one of k duplicate insertions only
/// changes the graph once the last occurrence goes. Node id spaces never
/// shrink — a "deleted user" is a user whose edges have been removed.
struct GraphDelta {
  std::vector<NodeDelta> nodes;
  std::vector<EdgeDelta> edges;
  std::vector<EdgeDelta> removed_edges;

  bool empty() const {
    return nodes.empty() && edges.empty() && removed_edges.empty();
  }

  /// Relations with at least one added OR removed edge (sorted,
  /// deduplicated) — the dirty set the delta-aware feature engine
  /// invalidates by.
  std::vector<RelationType> TouchedRelations() const;

  /// Total new nodes of `type` in this delta.
  size_t NodeGrowth(NodeType type) const;
};

/// One heterogeneous network: typed node counts + typed edge lists.
class HeteroNetwork {
 public:
  /// Creates a network with the given schema and a human-readable name
  /// (e.g. "twitter-like").
  explicit HeteroNetwork(NetworkSchema schema, std::string name = "network");

  const NetworkSchema& schema() const { return schema_; }
  const std::string& name() const { return name_; }

  /// Declares `count` nodes of `type`; returns the first new id.
  /// Repeated calls append to the id space.
  NodeId AddNodes(NodeType type, size_t count);

  /// Number of nodes of `type`.
  size_t NodeCount(NodeType type) const;

  /// Adds a typed edge. Endpoint types are dictated by the relation; ids
  /// must be in range (checked). Duplicate edges are allowed at insertion
  /// and deduplicated when building adjacency matrices.
  Status AddEdge(RelationType relation, NodeId src, NodeId dst);

  /// Checks a batch without applying it: every added edge is validated
  /// against the id ranges *after* the batch's node growth, and every
  /// removed edge must name a stored occurrence still present after the
  /// batch's own additions and earlier removals (so double-removal of a
  /// singly-stored edge is rejected).
  Status ValidateDelta(const GraphDelta& delta) const;

  /// Applies one batch atomically (ValidateDelta first, mutate only on
  /// success), so a bad delta leaves the network untouched. Order: node
  /// growth, then edge additions, then edge removals.
  Status ApplyDelta(const GraphDelta& delta);

  /// Number of stored edges of `relation` (including duplicates).
  size_t EdgeCount(RelationType relation) const;

  /// Raw edge list of `relation`.
  const std::vector<std::pair<NodeId, NodeId>>& Edges(
      RelationType relation) const;

  /// Returns the 0/1 adjacency matrix of `relation` (rows = source type
  /// ids, cols = target type ids, deduplicated), bucketed by source with
  /// no sort over the whole edge list.
  SparseMatrix AdjacencyMatrix(RelationType relation) const;

  /// Out-degree of user `u` in the follow relation.
  size_t FollowOutDegree(NodeId u) const;

  /// Total nodes across all types.
  size_t TotalNodeCount() const;

  /// Total edges across all relations.
  size_t TotalEdgeCount() const;

  std::string ToString() const;

 private:
  friend class AlignedPair;  // validates both sides, then applies each

  /// ApplyDelta's mutation, for a batch ValidateDelta accepted.
  void ApplyValidatedDelta(const GraphDelta& delta);

  NetworkSchema schema_;
  std::string name_;
  std::array<size_t, kNumNodeTypes> node_counts_{};
  std::array<std::vector<std::pair<NodeId, NodeId>>, kNumRelationTypes>
      edges_{};
};

}  // namespace activeiter

#endif  // ACTIVEITER_GRAPH_HETERO_NETWORK_H_
