// Attribute-level hypergraph H(MKB) (paper Sec. 5): attributes are
// hypernodes; relations, join constraints and function-of constraints are
// hyperedges. This representation backs the Fig. 4 reproduction and
// statistics; the algorithmic work (connectivity, path enumeration) runs
// on the relation-level JoinGraph (join_graph.h), which is sound because
// JC-nodes are the only nodes shared between relation-edges.

#ifndef EVE_HYPERGRAPH_HYPERGRAPH_H_
#define EVE_HYPERGRAPH_HYPERGRAPH_H_

#include <string>
#include <vector>

#include "catalog/attribute_ref.h"
#include "mkb/mkb.h"

namespace eve {

enum class HyperedgeKind { kRelation, kJoinConstraint, kFunctionOf };

struct Hyperedge {
  HyperedgeKind kind;
  std::string label;  // relation name or constraint id
  std::vector<AttributeRef> nodes;
};

class Hypergraph {
 public:
  // Builds H(MKB): one kRelation edge per catalog relation (its attribute
  // set), one kJoinConstraint edge per JC (attributes in its clauses), one
  // kFunctionOf edge per F (target and source).
  static Hypergraph Build(const Mkb& mkb);

  const std::vector<AttributeRef>& nodes() const { return nodes_; }
  const std::vector<Hyperedge>& edges() const { return edges_; }

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  size_t NumEdges(HyperedgeKind kind) const;

  // Maximal connected components, each reported as the sorted list of
  // relation labels it contains. Two hyperedges are connected when they
  // share a node; per the paper's observation, relation-edges meet only at
  // JC-nodes (function-of edges can also bridge, and are included).
  std::vector<std::vector<std::string>> RelationComponents() const;

  // Human-readable summary (node/edge counts and components) for docs
  // and `SHOW HYPERGRAPH`.
  std::string Summary() const;

 private:
  std::vector<AttributeRef> nodes_;
  std::vector<Hyperedge> edges_;
};

}  // namespace eve

#endif  // EVE_HYPERGRAPH_HYPERGRAPH_H_
