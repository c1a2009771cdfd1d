// Network schema (Definition 3): the type-level description of an
// attributed heterogeneous social network, used to validate meta paths and
// meta diagrams before any counting happens.

#ifndef ACTIVEITER_GRAPH_SCHEMA_H_
#define ACTIVEITER_GRAPH_SCHEMA_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/types.h"

namespace activeiter {

/// The schema of one attributed heterogeneous social network: which node
/// types exist and which typed relations connect them.
class NetworkSchema {
 public:
  /// The full social-network schema of Figure 2 (User/Post/Word/Location/
  /// Timestamp with follow/write/at/checkin/contain).
  static NetworkSchema SocialNetwork();

  /// A schema restricted to users and follow links (used by tests).
  static NetworkSchema UsersOnly();

  bool HasNodeType(NodeType type) const;
  bool HasRelation(RelationType type) const;

  const std::vector<NodeType>& node_types() const { return node_types_; }
  const std::vector<RelationType>& relation_types() const {
    return relation_types_;
  }

  /// Validates that `relation` connects `src` to `dst` in this schema,
  /// in the given direction.
  Status ValidateStep(NodeType src, RelationType relation, NodeType dst,
                      bool forward) const;

  std::string ToString() const;

 private:
  std::vector<NodeType> node_types_;
  std::vector<RelationType> relation_types_;
};

/// Schema of the aligned pair (both sides share the same social schema plus
/// the `anchor` relation between user types — Definition 3).
struct AlignedSchema {
  NetworkSchema first = NetworkSchema::SocialNetwork();
  NetworkSchema second = NetworkSchema::SocialNetwork();
};

}  // namespace activeiter

#endif  // ACTIVEITER_GRAPH_SCHEMA_H_
