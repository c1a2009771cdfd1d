#include "src/graph/hetero_network.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/string_util.h"

namespace activeiter {
namespace {

uint64_t EdgeKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

/// One relation's removed edges: EdgeKey → a count, and a mark per source
/// node that any removal names, so a pass over the stored edges probes
/// the map only for the few edges whose source is marked.
struct RemovedEdges {
  std::unordered_map<uint64_t, size_t> count;
  std::vector<bool> source;

  /// The count of (src, dst), or nullptr when no removal names it.
  size_t* Find(NodeId src, NodeId dst) {
    if (src >= source.size() || !source[src]) return nullptr;
    auto it = count.find(EdgeKey(src, dst));
    return it == count.end() ? nullptr : &it->second;
  }
};

/// The batch's removed edges per relation, every count 0. A removal whose
/// source lies outside `node_counts` names no edge: it is left out, so
/// Find reports it unmatched, and the mark never outgrows the universe.
std::array<RemovedEdges, kNumRelationTypes> RemovalKeys(
    const std::vector<EdgeDelta>& removed,
    const std::array<size_t, kNumNodeTypes>& node_counts) {
  std::array<RemovedEdges, kNumRelationTypes> keys;
  for (const EdgeDelta& r : removed) {
    if (r.src >= node_counts[static_cast<size_t>(
                     RelationSourceType(r.relation))]) {
      continue;
    }
    RemovedEdges& rel = keys[static_cast<size_t>(r.relation)];
    if (rel.source.size() <= r.src) rel.source.resize(r.src + 1, false);
    rel.source[r.src] = true;
    rel.count.emplace(EdgeKey(r.src, r.dst), 0);
  }
  return keys;
}

}  // namespace

std::vector<RelationType> GraphDelta::TouchedRelations() const {
  std::vector<RelationType> out;
  auto note = [&out](const EdgeDelta& e) {
    if (std::find(out.begin(), out.end(), e.relation) == out.end()) {
      out.push_back(e.relation);
    }
  };
  for (const EdgeDelta& e : edges) note(e);
  for (const EdgeDelta& e : removed_edges) note(e);
  std::sort(out.begin(), out.end());
  return out;
}

size_t GraphDelta::NodeGrowth(NodeType type) const {
  size_t total = 0;
  for (const NodeDelta& n : nodes) {
    if (n.type == type) total += n.count;
  }
  return total;
}

HeteroNetwork::HeteroNetwork(NetworkSchema schema, std::string name)
    : schema_(std::move(schema)), name_(std::move(name)) {}

NodeId HeteroNetwork::AddNodes(NodeType type, size_t count) {
  ACTIVEITER_CHECK_MSG(schema_.HasNodeType(type), "node type not in schema");
  size_t& slot = node_counts_[static_cast<size_t>(type)];
  NodeId first = static_cast<NodeId>(slot);
  slot += count;
  return first;
}

size_t HeteroNetwork::NodeCount(NodeType type) const {
  return node_counts_[static_cast<size_t>(type)];
}

Status HeteroNetwork::AddEdge(RelationType relation, NodeId src, NodeId dst) {
  if (!schema_.HasRelation(relation)) {
    return Status::InvalidArgument(
        StrFormat("relation %s not in schema", RelationTypeName(relation)));
  }
  size_t src_count = NodeCount(RelationSourceType(relation));
  size_t dst_count = NodeCount(RelationTargetType(relation));
  if (src >= src_count || dst >= dst_count) {
    return Status::OutOfRange(StrFormat(
        "edge (%u -> %u) out of range for relation %s (%zu x %zu)", src, dst,
        RelationTypeName(relation), src_count, dst_count));
  }
  edges_[static_cast<size_t>(relation)].emplace_back(src, dst);
  return Status::OK();
}

Status HeteroNetwork::ValidateDelta(const GraphDelta& delta) const {
  std::array<size_t, kNumNodeTypes> counts = node_counts_;
  for (const NodeDelta& n : delta.nodes) {
    if (!schema_.HasNodeType(n.type)) {
      return Status::InvalidArgument(
          StrFormat("node type %s not in schema", NodeTypeName(n.type)));
    }
    counts[static_cast<size_t>(n.type)] += n.count;
  }
  for (const EdgeDelta& e : delta.edges) {
    if (!schema_.HasRelation(e.relation)) {
      return Status::InvalidArgument(StrFormat(
          "relation %s not in schema", RelationTypeName(e.relation)));
    }
    size_t src_count = counts[static_cast<size_t>(
        RelationSourceType(e.relation))];
    size_t dst_count = counts[static_cast<size_t>(
        RelationTargetType(e.relation))];
    if (e.src >= src_count || e.dst >= dst_count) {
      return Status::OutOfRange(StrFormat(
          "delta edge (%u -> %u) out of range for relation %s (%zu x %zu)",
          e.src, e.dst, RelationTypeName(e.relation), src_count, dst_count));
    }
  }
  if (delta.removed_edges.empty()) return Status::OK();
  // Each removal must hit an occurrence that still exists at its point in
  // the batch: stored count + same-batch additions − earlier removals. The
  // removed keys' occurrences are counted in one pass over each touched
  // relation's stored edges and the batch's additions, then the removals
  // spend them in order.
  auto available = RemovalKeys(delta.removed_edges, counts);
  for (size_t rel = 0; rel < kNumRelationTypes; ++rel) {
    if (available[rel].count.empty()) continue;
    for (const auto& [src, dst] : edges_[rel]) {
      if (size_t* n = available[rel].Find(src, dst)) ++*n;
    }
  }
  for (const EdgeDelta& e : delta.edges) {
    if (size_t* n = available[static_cast<size_t>(e.relation)].Find(e.src,
                                                                    e.dst)) {
      ++*n;
    }
  }
  for (const EdgeDelta& r : delta.removed_edges) {
    if (!schema_.HasRelation(r.relation)) {
      return Status::InvalidArgument(StrFormat(
          "relation %s not in schema", RelationTypeName(r.relation)));
    }
    size_t* left =
        available[static_cast<size_t>(r.relation)].Find(r.src, r.dst);
    if (left == nullptr || *left == 0) {
      return Status::NotFound(StrFormat(
          "removal of edge (%u -> %u) relation %s: no stored occurrence "
          "left to remove",
          r.src, r.dst, RelationTypeName(r.relation)));
    }
    --*left;
  }
  return Status::OK();
}

Status HeteroNetwork::ApplyDelta(const GraphDelta& delta) {
  ACTIVEITER_RETURN_IF_ERROR(ValidateDelta(delta));
  ApplyValidatedDelta(delta);
  return Status::OK();
}

void HeteroNetwork::ApplyValidatedDelta(const GraphDelta& delta) {
  for (const NodeDelta& n : delta.nodes) {
    node_counts_[static_cast<size_t>(n.type)] += n.count;
  }
  for (const EdgeDelta& e : delta.edges) {
    edges_[static_cast<size_t>(e.relation)].emplace_back(e.src, e.dst);
  }
  if (delta.removed_edges.empty()) return;
  // One stable compaction per touched relation drops the first k stored
  // occurrences of each key removed k times: the same survivors, in the
  // same order, as k first-occurrence erases.
  auto pending = RemovalKeys(delta.removed_edges, node_counts_);
  for (const EdgeDelta& r : delta.removed_edges) {
    ++*pending[static_cast<size_t>(r.relation)].Find(r.src, r.dst);
  }
  for (size_t rel = 0; rel < kNumRelationTypes; ++rel) {
    if (pending[rel].count.empty()) continue;
    auto& list = edges_[rel];
    size_t kept = 0;
    for (size_t k = 0; k < list.size(); ++k) {
      size_t* left = pending[rel].Find(list[k].first, list[k].second);
      if (left != nullptr && *left > 0) {
        --*left;
        continue;
      }
      if (kept != k) list[kept] = list[k];
      ++kept;
    }
    list.resize(kept);
    for (const auto& [key, left] : pending[rel].count) {
      ACTIVEITER_CHECK_MSG(left == 0,
                           "validated removal missing at apply time");
    }
  }
}

size_t HeteroNetwork::EdgeCount(RelationType relation) const {
  return edges_[static_cast<size_t>(relation)].size();
}

const std::vector<std::pair<NodeId, NodeId>>& HeteroNetwork::Edges(
    RelationType relation) const {
  return edges_[static_cast<size_t>(relation)];
}

SparseMatrix HeteroNetwork::AdjacencyMatrix(RelationType relation) const {
  const size_t rows = NodeCount(RelationSourceType(relation));
  const size_t cols = NodeCount(RelationTargetType(relation));
  const auto& list = edges_[static_cast<size_t>(relation)];
  // Targets bucketed by source (count, prefix-sum, scatter; endpoints were
  // range-checked on insertion), then each short row sorted and compacted
  // in place: duplicate insertions collapse to one 0/1 entry.
  std::vector<size_t> row_ptr(rows + 1, 0);
  for (const auto& edge : list) ++row_ptr[edge.first + 1];
  for (size_t i = 0; i < rows; ++i) row_ptr[i + 1] += row_ptr[i];
  std::vector<size_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  std::vector<uint32_t> col_idx(list.size());
  for (const auto& [src, dst] : list) col_idx[cursor[src]++] = dst;
  size_t kept = 0;
  for (size_t i = 0, begin = 0; i < rows; ++i) {
    const size_t end = row_ptr[i + 1], row_start = kept;
    std::sort(col_idx.data() + begin, col_idx.data() + end);
    for (size_t k = begin; k < end; ++k) {
      if (kept == row_start || col_idx[kept - 1] != col_idx[k]) {
        col_idx[kept++] = col_idx[k];
      }
    }
    row_ptr[i + 1] = kept;
    begin = end;
  }
  col_idx.resize(kept);
  std::vector<double> values(kept, 1.0);
  return SparseMatrix::FromCsrUnchecked(rows, cols, std::move(row_ptr),
                                        std::move(col_idx),
                                        std::move(values));
}

size_t HeteroNetwork::FollowOutDegree(NodeId u) const {
  size_t degree = 0;
  for (const auto& [src, dst] : edges_[static_cast<size_t>(
           RelationType::kFollow)]) {
    (void)dst;
    if (src == u) ++degree;
  }
  return degree;
}

size_t HeteroNetwork::TotalNodeCount() const {
  size_t total = 0;
  for (size_t c : node_counts_) total += c;
  return total;
}

size_t HeteroNetwork::TotalEdgeCount() const {
  size_t total = 0;
  for (const auto& e : edges_) total += e.size();
  return total;
}

std::string HeteroNetwork::ToString() const {
  return StrFormat("%s: users=%zu posts=%zu words=%zu locations=%zu "
                   "timestamps=%zu follow=%zu write=%zu at=%zu checkin=%zu",
                   name_.c_str(), NodeCount(NodeType::kUser),
                   NodeCount(NodeType::kPost), NodeCount(NodeType::kWord),
                   NodeCount(NodeType::kLocation),
                   NodeCount(NodeType::kTimestamp),
                   EdgeCount(RelationType::kFollow),
                   EdgeCount(RelationType::kWrite),
                   EdgeCount(RelationType::kAt),
                   EdgeCount(RelationType::kCheckin));
}

}  // namespace activeiter
