#include "hypergraph/join_graph.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/str_util.h"

namespace eve {

std::string JoinTree::ToString() const {
  if (relations.empty()) return "(empty)";
  std::ostringstream os;
  os << relations[0];
  // Render edges in order; each edge mentions both endpoints, so a linear
  // rendering lists relations via the edges.
  for (const JoinConstraint& edge : edges) {
    os << " ⋈[" << edge.id << "] (" << edge.lhs << "," << edge.rhs << ")";
  }
  return os.str();
}

JoinGraph JoinGraph::Build(const Mkb& mkb) {
  JoinGraph graph;
  graph.relations_ = mkb.catalog().RelationNames();
  graph.external_edges_ = &mkb.join_constraints();
  graph.IndexParts();
  return graph;
}

size_t JoinGraph::IndexOf(const std::string& relation) const {
  const auto it =
      std::lower_bound(relations_.begin(), relations_.end(), relation);
  if (it == relations_.end() || *it != relation) return kNpos;
  return static_cast<size_t>(it - relations_.begin());
}

void JoinGraph::IndexParts() {
  const std::vector<JoinConstraint>& edges = Edges();
  // Construction-time interning: hash each relation name once and each
  // edge endpoint once. The map is scratch — queries afterwards use
  // IndexOf's binary search over the sorted relations_.
  std::unordered_map<std::string, size_t> intern;
  intern.reserve(relations_.size());
  for (size_t i = 0; i < relations_.size(); ++i) {
    intern.emplace(relations_[i], i);
  }
  // A JC may mention a relation the catalog no longer lists; keep it a
  // node (the old string-keyed adjacency did implicitly).
  bool appended = false;
  for (const JoinConstraint& jc : edges) {
    for (const std::string* end : {&jc.lhs, &jc.rhs}) {
      if (intern.emplace(*end, relations_.size()).second) {
        relations_.push_back(*end);
        appended = true;
      }
    }
  }
  if (appended) {
    std::sort(relations_.begin(), relations_.end());
    intern.clear();
    for (size_t i = 0; i < relations_.size(); ++i) {
      intern.emplace(relations_[i], i);
    }
  }
  const size_t num_relations = relations_.size();
  endpoints_.resize(edges.size());
  std::vector<size_t> degree(num_relations, 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    const size_t lhs = intern.at(edges[i].lhs);
    const size_t rhs = intern.at(edges[i].rhs);
    endpoints_[i] = {lhs, rhs};
    ++degree[lhs];
    ++degree[rhs];
  }
  adj_offsets_.assign(num_relations + 1, 0);
  for (size_t i = 0; i < num_relations; ++i) {
    adj_offsets_[i + 1] = adj_offsets_[i] + degree[i];
  }
  adj_edges_.resize(2 * edges.size());
  std::vector<size_t> cursor(adj_offsets_.begin(), adj_offsets_.end() - 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    adj_edges_[cursor[endpoints_[i].first]++] = i;
    adj_edges_[cursor[endpoints_[i].second]++] = i;
  }
  // Connected components: BFS over relation indices.
  component_id_.assign(num_relations, kNpos);
  size_t next_id = 0;
  std::deque<size_t> frontier;
  for (size_t start = 0; start < num_relations; ++start) {
    if (component_id_[start] != kNpos) continue;
    const size_t id = next_id++;
    component_id_[start] = id;
    frontier.assign(1, start);
    while (!frontier.empty()) {
      const size_t current = frontier.front();
      frontier.pop_front();
      for (const size_t edge_index : IncidentEdges(current)) {
        const auto [lhs, rhs] = endpoints_[edge_index];
        const size_t other = lhs == current ? rhs : lhs;
        if (component_id_[other] == kNpos) {
          component_id_[other] = id;
          frontier.push_back(other);
        }
      }
    }
  }
}

std::vector<JoinGraph::Neighbor> JoinGraph::Neighbors(
    const std::string& relation) const {
  std::vector<Neighbor> out;
  const size_t index = IndexOf(relation);
  if (index == kNpos) return out;
  out.reserve(adj_offsets_[index + 1] - adj_offsets_[index]);
  const std::vector<JoinConstraint>& edges = Edges();
  for (const size_t edge_index : IncidentEdges(index)) {
    const auto [lhs, rhs] = endpoints_[edge_index];
    out.push_back(Neighbor{relations_[lhs == index ? rhs : lhs],
                           edges[edge_index]});
  }
  return out;
}

bool JoinGraph::SameComponent(const std::string& a,
                              const std::string& b) const {
  const size_t ia = IndexOf(a);
  const size_t ib = IndexOf(b);
  return ia != kNpos && ib != kNpos && component_id_[ia] == component_id_[ib];
}

std::vector<std::string> JoinGraph::ComponentOf(
    const std::string& relation) const {
  std::vector<std::string> component;
  const size_t index = IndexOf(relation);
  if (index == kNpos) return component;
  const size_t id = component_id_[index];
  // relations_ is sorted, so the output is too.
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (component_id_[i] == id) component.push_back(relations_[i]);
  }
  return component;
}

std::vector<std::vector<std::string>> JoinGraph::Components() const {
  std::vector<std::vector<std::string>> out;
  std::unordered_map<size_t, size_t> slot_of_id;
  for (size_t i = 0; i < relations_.size(); ++i) {
    const auto [it, inserted] = slot_of_id.emplace(component_id_[i], out.size());
    if (inserted) out.emplace_back();
    out[it->second].push_back(relations_[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

JoinGraph JoinGraph::EraseRelation(const std::string& relation) const {
  JoinGraph out;
  for (const std::string& rel : relations_) {
    if (rel != relation) out.relations_.push_back(rel);
  }
  for (const JoinConstraint& jc : Edges()) {
    if (!jc.Involves(relation)) out.owned_edges_.push_back(jc);
  }
  out.IndexParts();
  return out;
}

std::vector<JoinTree> JoinGraph::FindConnectingTrees(
    const std::set<std::string>& required,
    const std::vector<JoinConstraint>& mandatory_edges,
    const JoinTreeSearchOptions& options) const {
  std::vector<JoinTree> results;
  JoinTreeEnumerator enumerator(*this, required, mandatory_edges, options);
  while (results.size() < options.max_results) {
    std::optional<JoinTree> tree = enumerator.Next();
    if (!tree.has_value()) break;
    results.push_back(std::move(*tree));
  }
  return results;
}

JoinTreeEnumerator::JoinTreeEnumerator(
    const JoinGraph& graph, const std::set<std::string>& required,
    std::vector<JoinConstraint> mandatory_edges,
    const JoinTreeSearchOptions& options)
    : graph_(&graph),
      mandatory_edges_(std::move(mandatory_edges)),
      token_(options.token) {
  if (required.empty()) return;  // frontier stays empty: exhausted
  // `required` is name-sorted, so its indices come out ascending.
  RelationSet seed;
  seed.reserve(required.size());
  for (const std::string& rel : required) {
    const size_t index = graph_->IndexOf(rel);
    if (index == JoinGraph::kNpos) return;  // relation gone
    seed.push_back(static_cast<uint32_t>(index));
  }
  // Fail fast on unreachable requests: a spanning tree can only exist
  // inside one connected component, so there is no point growing sets.
  const size_t component = graph_->component_id_[seed.front()];
  for (const uint32_t rel : seed) {
    if (graph_->component_id_[rel] != component) return;
  }
  for (const JoinConstraint& edge : mandatory_edges_) {
    const size_t lhs = graph_->IndexOf(edge.lhs);
    const size_t rhs = graph_->IndexOf(edge.rhs);
    if (lhs == JoinGraph::kNpos || rhs == JoinGraph::kNpos ||
        !std::binary_search(seed.begin(), seed.end(), lhs) ||
        !std::binary_search(seed.begin(), seed.end(), rhs)) {
      return;  // mandatory edge endpoint outside the required set
    }
    mandatory_endpoints_.emplace_back(static_cast<uint32_t>(lhs),
                                      static_cast<uint32_t>(rhs));
  }
  if (!mandatory_edges_.empty()) {
    const std::vector<JoinConstraint>& edges = graph_->Edges();
    edge_mandatory_.assign(edges.size(), false);
    for (size_t i = 0; i < edges.size(); ++i) {
      for (const JoinConstraint& edge : mandatory_edges_) {
        if (edges[i].id == edge.id) edge_mandatory_[i] = true;
      }
    }
  }
  max_relations_ = seed.size() + options.max_extra_relations;

  // Static size floor: a connecting tree contains a path between every
  // pair of required relations, so its relation count is at least the
  // largest pairwise BFS distance plus one. The uniform-cost frontier
  // starts at |required| no matter how far apart the required relations
  // lie; this floor is visible through NextTreeSizeLowerBound() before
  // any set is expanded.
  min_tree_size_ = seed.size();
  for (const uint32_t source : seed) {
    std::vector<size_t> dist(graph_->relations_.size(), JoinGraph::kNpos);
    std::deque<size_t> queue{source};
    dist[source] = 0;
    while (!queue.empty()) {
      const size_t at = queue.front();
      queue.pop_front();
      for (const size_t edge_index : graph_->IncidentEdges(at)) {
        const auto [lhs, rhs] = graph_->endpoints_[edge_index];
        const size_t other = lhs == at ? rhs : lhs;
        if (dist[other] != JoinGraph::kNpos) continue;
        dist[other] = dist[at] + 1;
        queue.push_back(other);
      }
    }
    for (const uint32_t target : seed) {
      min_tree_size_ = std::max(min_tree_size_, dist[target] + 1);
    }
  }

  slot_.assign(graph_->relations_.size(), kAbsent);
  frontier_.push_back(&*visited_.insert(std::move(seed)).first);
}

size_t JoinTreeEnumerator::RelationSetHash::operator()(
    const RelationSet& set) const {
  uint64_t hash = set.size();
  for (const uint32_t rel : set) {
    hash = (hash ^ rel) * 0x9e3779b97f4a7c15ULL;
    hash ^= hash >> 32;
  }
  return static_cast<size_t>(hash);
}

uint32_t JoinTreeEnumerator::Find(uint32_t position) {
  while (parent_[position] != position) {
    parent_[position] = parent_[parent_[position]];  // path halving
    position = parent_[position];
  }
  return position;
}

// Only whether two positions end up joined matters (it decides which edges
// are taken), so any union-find yields the same edges in the same order.
bool JoinTreeEnumerator::Connects(const RelationSet& chosen) {
  const uint32_t size = static_cast<uint32_t>(chosen.size());
  parent_.resize(size);
  for (uint32_t i = 0; i < size; ++i) parent_[i] = i;
  uint32_t components = size;
  const auto unite = [&](uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    --components;
    return true;
  };
  for (const auto& [lhs, rhs] : mandatory_endpoints_) {
    unite(slot_[lhs], slot_[rhs]);
  }
  tree_edges_.clear();
  for (uint32_t position = 0; position < size && components > 1;
       ++position) {
    const uint32_t rel = chosen[position];
    for (const size_t edge_index : graph_->IncidentEdges(rel)) {
      const auto [lhs, rhs] = graph_->endpoints_[edge_index];
      const uint32_t other_slot = slot_[lhs == rel ? rhs : lhs];
      if (other_slot == kAbsent) continue;
      // Skip a JC already included as mandatory.
      if (!edge_mandatory_.empty() && edge_mandatory_[edge_index]) continue;
      if (unite(position, other_slot)) tree_edges_.push_back(edge_index);
    }
  }
  return components == 1;
}

JoinTree JoinTreeEnumerator::MakeTree(const RelationSet& chosen) const {
  JoinTree tree;
  tree.relations.reserve(chosen.size());
  for (const uint32_t rel : chosen) {
    tree.relations.push_back(graph_->relations_[rel]);
  }
  tree.edges.reserve(mandatory_edges_.size() + tree_edges_.size());
  tree.edges.insert(tree.edges.end(), mandatory_edges_.begin(),
                    mandatory_edges_.end());
  for (const size_t edge_index : tree_edges_) {
    tree.edges.push_back(graph_->Edges()[edge_index]);
  }
  return tree;
}

void JoinTreeEnumerator::Grow(const RelationSet& chosen) {
  // Grow by any relation adjacent to the current set.
  neighbors_.clear();
  for (const uint32_t rel : chosen) {
    for (const size_t edge_index : graph_->IncidentEdges(rel)) {
      const auto [lhs, rhs] = graph_->endpoints_[edge_index];
      const uint32_t other = static_cast<uint32_t>(lhs == rel ? rhs : lhs);
      if (slot_[other] != kAbsent) continue;  // member or already seen
      slot_[other] = kNeighbor;
      neighbors_.push_back(other);
    }
  }
  for (const uint32_t neighbor : neighbors_) {
    slot_[neighbor] = kAbsent;
    RelationSet next;
    next.reserve(chosen.size() + 1);
    const auto pos = std::lower_bound(chosen.begin(), chosen.end(), neighbor);
    next.insert(next.end(), chosen.begin(), pos);
    next.push_back(neighbor);
    next.insert(next.end(), pos, chosen.end());
    const auto [it, inserted] = visited_.insert(std::move(next));
    if (inserted) {
      frontier_.push_back(&*it);
      std::push_heap(frontier_.begin(), frontier_.end(), SizeLexGreater{});
    }
  }
}

std::optional<JoinTree> JoinTreeEnumerator::Next() {
  if (interrupted_) return std::nullopt;
  while (!frontier_.empty()) {
    // One frontier pop is the unit of logical work: spend it before
    // expanding, so a refused step leaves the frontier (and with it the
    // first-cut lower bound) untouched.
    if (!token_.Spend(1)) {
      interrupted_ = true;
      return std::nullopt;
    }
    std::pop_heap(frontier_.begin(), frontier_.end(), SizeLexGreater{});
    const RelationSet& chosen = *frontier_.back();
    frontier_.pop_back();
    ++sets_expanded_;

    for (uint32_t i = 0; i < chosen.size(); ++i) slot_[chosen[i]] = i;
    const bool connected = Connects(chosen);
    if (!connected && chosen.size() < max_relations_) Grow(chosen);
    for (const uint32_t rel : chosen) slot_[rel] = kAbsent;
    if (connected) {
      // Minimal connected superset found; don't grow it further.
      ++trees_yielded_;
      return MakeTree(chosen);
    }
    if (chosen.size() >= max_relations_) {
      ++sets_cut_;  // disconnected set hit the bound: lost search subtree
    }
  }
  return std::nullopt;
}

size_t JoinTreeEnumerator::NextTreeSizeLowerBound() const {
  if (frontier_.empty()) return static_cast<size_t>(-1);
  // Both are admissible (the distance floor bounds every tree this
  // enumerator can ever yield, the frontier minimum bounds the remaining
  // ones), so their maximum is too.
  return std::max(frontier_.front()->size(), min_tree_size_);
}

}  // namespace eve
