// JoinGraph: the relation-level view of H(MKB) — nodes are relations,
// (multi-)edges are join constraints. Because relation hyperedges meet only
// at JC-nodes, connectivity and join-chain enumeration on this graph are
// equivalent to the hypergraph formulation in the paper, and the sequence
// S1 ⋈_{JC} R1 ⋈ ... ⋈_{JC} S2 of Sec. 5 is a path here.
//
// Each JC edge is stored once. Construction interns every relation name to
// a dense index; adjacency lists, edge endpoints and connected-component
// ids are plain index arrays over that interning, so membership and
// component queries are O(1), traversals never hash a string, and a
// cross-component FindConnectingTrees request fails fast.

#ifndef EVE_HYPERGRAPH_JOIN_GRAPH_H_
#define EVE_HYPERGRAPH_JOIN_GRAPH_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/cancellation.h"
#include "mkb/constraints.h"
#include "mkb/mkb.h"

namespace eve {

// A connected join expression: a set of relations plus the JC edges of a
// spanning tree over them (|edges| == |relations| - 1).
struct JoinTree {
  std::vector<std::string> relations;    // sorted
  std::vector<JoinConstraint> edges;

  // "R1 ⋈[JC1] R2 ⋈[JC4] R3".
  std::string ToString() const;
};

// Options bounding the join-tree search in FindConnectingTrees.
struct JoinTreeSearchOptions {
  // Maximum relations added beyond the required set (Steiner nodes).
  size_t max_extra_relations = 3;
  // Maximum number of trees to return.
  size_t max_results = 64;
  // Optional deadline/cancellation scope. The enumerator spends one unit
  // per frontier set popped; when the token refuses, Next() stops at that
  // safe point (interrupted(), not Exhausted()). The null token is free.
  DeadlineToken token;
};

class JoinGraph {
 public:
  // Builds the relation-level graph from every catalog relation and JC.
  // The graph borrows `mkb`'s join-constraint storage instead of copying
  // it, so it must not outlive the Mkb (nor survive a mutation of its
  // constraint set). SyncContext already ties the two lifetimes together;
  // EraseRelation results own their edges and have no such dependency.
  static JoinGraph Build(const Mkb& mkb);

  const std::vector<std::string>& relations() const { return relations_; }
  bool HasRelation(const std::string& relation) const {
    return IndexOf(relation) != kNpos;
  }

  // JC edges incident to `relation` (with the neighbor on the other side).
  struct Neighbor {
    std::string relation;
    JoinConstraint edge;
  };
  std::vector<Neighbor> Neighbors(const std::string& relation) const;

  // True if `a` and `b` lie in the same connected component.
  bool SameComponent(const std::string& a, const std::string& b) const;

  // All relations in the component of `relation` — the S_R(MKB) of the
  // paper's connected sub-hypergraph H_R(MKB). Sorted.
  std::vector<std::string> ComponentOf(const std::string& relation) const;

  // All maximal components, each sorted; components sorted among
  // themselves.
  std::vector<std::vector<std::string>> Components() const;

  // The graph with `relation` (and its incident edges) erased — the
  // relation-level H'_R(MKB').
  JoinGraph EraseRelation(const std::string& relation) const;

  // Enumerates join trees that (a) span every relation in `required`,
  // (b) include every edge in `mandatory_edges` (the surviving part of
  // Min(H_R), per Def. 3 (III)), and (c) use at most
  // options.max_extra_relations relations beyond `required`.
  // Trees are emitted smallest-first (fewest extra relations). Returns an
  // empty vector when `required` spans multiple components.
  //
  // Compatibility wrapper: drains a JoinTreeEnumerator for up to
  // options.max_results trees.
  std::vector<JoinTree> FindConnectingTrees(
      const std::set<std::string>& required,
      const std::vector<JoinConstraint>& mandatory_edges,
      const JoinTreeSearchOptions& options) const;

 private:
  friend class JoinTreeEnumerator;

  // Resolves edge endpoints to relation indices, builds the CSR adjacency
  // and assigns connected-component ids. Expects relations_ (sorted) and
  // the edge storage to be populated.
  void IndexParts();

  // Index of `relation` in relations_ (binary search), or npos if absent.
  size_t IndexOf(const std::string& relation) const;

  static constexpr size_t kNpos = static_cast<size_t>(-1);

  // Every JC edge once; adjacency lists hold indices into this vector.
  // Build() borrows the Mkb's vector (external_edges_); EraseRelation()
  // fills owned_edges_. The pointer never aims inside the object itself,
  // so default copy/move keep both forms valid.
  const std::vector<JoinConstraint>& Edges() const {
    return external_edges_ != nullptr ? *external_edges_ : owned_edges_;
  }

  // Edge indices incident to relation index i:
  // adj_edges_[adj_offsets_[i] .. adj_offsets_[i+1]).
  struct EdgeSpan {
    const size_t* begin_;
    const size_t* end_;
    const size_t* begin() const { return begin_; }
    const size_t* end() const { return end_; }
  };
  EdgeSpan IncidentEdges(size_t relation_index) const {
    return {adj_edges_.data() + adj_offsets_[relation_index],
            adj_edges_.data() + adj_offsets_[relation_index + 1]};
  }

  std::vector<std::string> relations_;  // sorted
  std::vector<JoinConstraint> owned_edges_;
  const std::vector<JoinConstraint>* external_edges_ = nullptr;
  // Per edge: (index of lhs, index of rhs) in relations_.
  std::vector<std::pair<size_t, size_t>> endpoints_;
  // CSR adjacency over relation indices (see IncidentEdges).
  std::vector<size_t> adj_offsets_;
  std::vector<size_t> adj_edges_;
  // Per relation index: connected-component id.
  std::vector<size_t> component_id_;
};

// Resumable uniform-cost enumeration of the connecting join trees of a
// required relation set: a generator over the same search space as
// FindConnectingTrees, but pull-driven. Trees are yielded in nondecreasing
// relation-count order (every JC edge has unit weight, and a tree over n
// relations has exactly n-1 edges, so relation count IS the tree's edge
// weight plus one); within one size, in lexicographic order of the sorted
// relation vector, which makes the emission sequence fully deterministic.
//
// The enumerator borrows `graph` (and, via it, the Mkb's edge storage):
// it must not outlive either. Callers interleave Next() with
// NextTreeSizeLowerBound() to drive best-first merges across many
// enumerators without materializing any tree list.
class JoinTreeEnumerator {
 public:
  // `options.max_extra_relations` bounds growth exactly as in
  // FindConnectingTrees; `options.max_results` is ignored (the caller
  // decides how many trees to pull).
  JoinTreeEnumerator(const JoinGraph& graph,
                     const std::set<std::string>& required,
                     std::vector<JoinConstraint> mandatory_edges,
                     const JoinTreeSearchOptions& options);

  // Move-only: the frontier points into the visited-set storage, whose
  // nodes a move hands over intact but a copy would not.
  JoinTreeEnumerator(JoinTreeEnumerator&&) noexcept = default;
  JoinTreeEnumerator& operator=(JoinTreeEnumerator&&) noexcept = default;
  JoinTreeEnumerator(const JoinTreeEnumerator&) = delete;
  JoinTreeEnumerator& operator=(const JoinTreeEnumerator&) = delete;

  // The next tree in nondecreasing size order, or nullopt when the search
  // space is exhausted.
  std::optional<JoinTree> Next();

  // Admissible lower bound on the relation count of every tree not yet
  // yielded: the larger of the smallest frontier set's size and the
  // static distance floor (any connecting tree contains a path between
  // each pair of required relations, so it has at least max pairwise BFS
  // distance + 1 relations). SIZE_MAX once exhausted. The distance floor
  // is what lets a best-first merge across many enumerators rank a
  // far-flung required set as expensive before expanding a single set.
  size_t NextTreeSizeLowerBound() const;

  bool Exhausted() const { return frontier_.empty(); }

  // True once the search was stopped by options.token rather than by
  // draining the space: the frontier is intact, NextTreeSizeLowerBound()
  // still bounds the unexplored remainder (the "first-cut frontier
  // bound"), and every further Next() returns nullopt immediately.
  bool interrupted() const { return interrupted_; }

  // Frontier sets popped and examined so far.
  size_t sets_expanded() const { return sets_expanded_; }
  // Frontier sets discarded at the max_extra_relations bound before
  // becoming connected — each is a lost subtree of the search space, so a
  // nonzero count means the enumeration may be incomplete.
  size_t sets_cut() const { return sets_cut_; }
  size_t trees_yielded() const { return trees_yielded_; }

 private:
  // A relation set: indices into the graph's relations_, ascending. The
  // graph's relation list is sorted and duplicate-free, so index order is
  // name order, and comparing two index vectors lexicographically orders
  // them exactly as comparing their name vectors would.
  using RelationSet = std::vector<uint32_t>;
  struct RelationSetHash {
    size_t operator()(const RelationSet& set) const;
  };
  // Heap order for the frontier: the smallest (size, lexicographic) set
  // on top.
  struct SizeLexGreater {
    bool operator()(const RelationSet* a, const RelationSet* b) const {
      if (a->size() != b->size()) return a->size() > b->size();
      return *a > *b;
    }
  };

  // Tries to connect the popped set (whose members slot_ marks):
  // mandatory edges first, then any edge between members that merges two
  // components. On success the non-mandatory edges taken are left in
  // tree_edges_, in the order they were taken.
  bool Connects(const RelationSet& chosen);
  // Union-find over positions in the popped set (parent_).
  uint32_t Find(uint32_t position);
  // The yielded tree: the only place relation names are produced.
  JoinTree MakeTree(const RelationSet& chosen) const;
  // Enqueues every unvisited one-relation extension of `chosen`.
  void Grow(const RelationSet& chosen);

  static constexpr uint32_t kAbsent = static_cast<uint32_t>(-1);
  static constexpr uint32_t kNeighbor = kAbsent - 1;

  const JoinGraph* graph_;
  std::vector<JoinConstraint> mandatory_edges_;
  // Per mandatory edge: its endpoints as relation indices.
  std::vector<std::pair<uint32_t, uint32_t>> mandatory_endpoints_;
  // Per graph edge: its id names a mandatory edge, so it is already in
  // every tree. Empty when there are no mandatory edges.
  std::vector<bool> edge_mandatory_;
  size_t max_relations_ = 0;
  // Static size floor: max pairwise BFS distance among required + 1.
  size_t min_tree_size_ = 0;
  DeadlineToken token_;
  bool interrupted_ = false;

  // Uniform-cost search state. visited_ holds every set ever enqueued (so
  // regrowing along a different edge order is skipped); frontier_ is a
  // binary heap of pointers to the pending ones. A set enters the
  // frontier only on its first insertion into visited_, so the heap never
  // holds a duplicate, and node-based storage keeps the pointers valid.
  std::unordered_set<RelationSet, RelationSetHash> visited_;
  std::vector<const RelationSet*> frontier_;

  // Scratch for the set being expanded, all restored before Next()
  // returns: slot_[r] is relation r's position in the set (kNeighbor
  // while r is collected as a growth candidate, kAbsent otherwise).
  std::vector<uint32_t> slot_;
  std::vector<uint32_t> parent_;
  std::vector<size_t> tree_edges_;
  std::vector<uint32_t> neighbors_;

  size_t sets_expanded_ = 0;
  size_t sets_cut_ = 0;
  size_t trees_yielded_ = 0;
};

}  // namespace eve

#endif  // EVE_HYPERGRAPH_JOIN_GRAPH_H_
