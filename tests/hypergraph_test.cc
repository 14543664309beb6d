#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/join_graph.h"
#include "mkb/builder.h"
#include "mkb/evolution.h"
#include "workload/generator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

// --- Hypergraph (Fig. 4 reproduction) ------------------------------------

TEST(HypergraphTest, Fig4NodeAndEdgeCounts) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const Hypergraph graph = Hypergraph::Build(mkb);
  // 7 relations with 4+4+4+6+4+3+4 = 29 attributes.
  EXPECT_EQ(graph.NumNodes(), 29u);
  EXPECT_EQ(graph.NumEdges(HyperedgeKind::kRelation), 7u);
  EXPECT_EQ(graph.NumEdges(HyperedgeKind::kJoinConstraint), 6u);
  EXPECT_EQ(graph.NumEdges(HyperedgeKind::kFunctionOf), 7u);
}

TEST(HypergraphTest, Fig4TwoConnectedComponents) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const auto components = Hypergraph::Build(mkb).RelationComponents();
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0],
            (std::vector<std::string>{"Accident-Ins", "Customer",
                                      "FlightRes", "Participant", "Tour"}));
  EXPECT_EQ(components[1],
            (std::vector<std::string>{"Hotels", "RentACar"}));
}

TEST(HypergraphTest, Fig4PrimeAfterDeletingCustomer) {
  // H'(MKB'): deleting Customer splits the big component.
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const auto report =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("Customer")).value();
  const auto components =
      Hypergraph::Build(report.mkb).RelationComponents();
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0],
            (std::vector<std::string>{"Accident-Ins", "FlightRes"}));
  EXPECT_EQ(components[1], (std::vector<std::string>{"Hotels", "RentACar"}));
  EXPECT_EQ(components[2], (std::vector<std::string>{"Participant", "Tour"}));
}

TEST(HypergraphTest, SummaryMentionsComponents) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const std::string summary = Hypergraph::Build(mkb).Summary();
  EXPECT_NE(summary.find("29 attribute nodes"), std::string::npos);
  EXPECT_NE(summary.find("connected components (2)"), std::string::npos);
}

// --- JoinGraph -----------------------------------------------------------

class JoinGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    graph_ = JoinGraph::Build(mkb_);
  }
  Mkb mkb_;
  JoinGraph graph_;
};

TEST_F(JoinGraphTest, NeighborsFollowJoinConstraints) {
  const auto neighbors = graph_.Neighbors("Customer");
  ASSERT_EQ(neighbors.size(), 3u);  // JC1, JC2, JC3
  std::vector<std::string> names;
  for (const auto& n : neighbors) names.push_back(n.relation);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"Accident-Ins", "FlightRes",
                                             "Participant"}));
}

TEST_F(JoinGraphTest, ComponentOfMatchesFig4) {
  EXPECT_EQ(graph_.ComponentOf("Customer"),
            (std::vector<std::string>{"Accident-Ins", "Customer",
                                      "FlightRes", "Participant", "Tour"}));
  EXPECT_EQ(graph_.ComponentOf("Hotels"),
            (std::vector<std::string>{"Hotels", "RentACar"}));
  EXPECT_TRUE(graph_.ComponentOf("Nowhere").empty());
}

TEST_F(JoinGraphTest, SameComponent) {
  EXPECT_TRUE(graph_.SameComponent("Customer", "Tour"));
  EXPECT_FALSE(graph_.SameComponent("Customer", "Hotels"));
}

TEST_F(JoinGraphTest, ComponentsAreSortedPartition) {
  const auto components = graph_.Components();
  ASSERT_EQ(components.size(), 2u);
  size_t total = 0;
  for (const auto& c : components) total += c.size();
  EXPECT_EQ(total, 7u);
}

TEST_F(JoinGraphTest, EraseRelationRemovesEdges) {
  const JoinGraph pruned = graph_.EraseRelation("Customer");
  EXPECT_FALSE(pruned.HasRelation("Customer"));
  EXPECT_TRUE(pruned.HasRelation("FlightRes"));
  // FlightRes keeps only JC6.
  const auto neighbors = pruned.Neighbors("FlightRes");
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].relation, "Accident-Ins");
  EXPECT_FALSE(pruned.SameComponent("FlightRes", "Participant"));
}

TEST_F(JoinGraphTest, FindConnectingTreesSingleRelation) {
  const auto trees = graph_.FindConnectingTrees({"FlightRes"}, {}, {});
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].relations, (std::vector<std::string>{"FlightRes"}));
  EXPECT_TRUE(trees[0].edges.empty());
}

TEST_F(JoinGraphTest, FindConnectingTreesDirectEdge) {
  const auto trees =
      graph_.FindConnectingTrees({"FlightRes", "Accident-Ins"}, {}, {});
  ASSERT_GE(trees.size(), 1u);
  EXPECT_EQ(trees[0].relations.size(), 2u);
  ASSERT_EQ(trees[0].edges.size(), 1u);
  EXPECT_EQ(trees[0].edges[0].id, "JC6");
}

TEST_F(JoinGraphTest, FindConnectingTreesMultiHop) {
  // Tour to FlightRes requires Participant and Customer as Steiner nodes.
  JoinTreeSearchOptions options;
  options.max_extra_relations = 3;
  const auto trees =
      graph_.FindConnectingTrees({"Tour", "FlightRes"}, {}, options);
  ASSERT_GE(trees.size(), 1u);
  const JoinTree& best = trees[0];
  EXPECT_EQ(best.relations.size(), 4u);
  EXPECT_EQ(best.edges.size(), 3u);
}

TEST_F(JoinGraphTest, FindConnectingTreesRespectsBound) {
  JoinTreeSearchOptions options;
  options.max_extra_relations = 1;  // not enough for Tour—FlightRes
  const auto trees =
      graph_.FindConnectingTrees({"Tour", "FlightRes"}, {}, options);
  EXPECT_TRUE(trees.empty());
}

TEST_F(JoinGraphTest, FindConnectingTreesAcrossComponentsFails) {
  const auto trees =
      graph_.FindConnectingTrees({"Customer", "Hotels"}, {}, {});
  EXPECT_TRUE(trees.empty());
}

TEST_F(JoinGraphTest, FindConnectingTreesMissingRelationFails) {
  const auto trees = graph_.FindConnectingTrees({"Ghost"}, {}, {});
  EXPECT_TRUE(trees.empty());
}

TEST_F(JoinGraphTest, MandatoryEdgesAreIncluded) {
  const JoinConstraint* jc4 = mkb_.GetJoinConstraint("JC4").value();
  const auto trees = graph_.FindConnectingTrees(
      {"Participant", "Tour", "Customer"}, {*jc4}, {});
  ASSERT_GE(trees.size(), 1u);
  bool found_jc4 = false;
  for (const JoinConstraint& edge : trees[0].edges) {
    if (edge.id == "JC4") found_jc4 = true;
  }
  EXPECT_TRUE(found_jc4);
  EXPECT_EQ(trees[0].edges.size(), 2u);  // JC4 + JC3
}

TEST_F(JoinGraphTest, MandatoryEdgeOutsideRequiredSetRejected) {
  const JoinConstraint* jc4 = mkb_.GetJoinConstraint("JC4").value();
  const auto trees =
      graph_.FindConnectingTrees({"Customer", "FlightRes"}, {*jc4}, {});
  EXPECT_TRUE(trees.empty());
}

TEST_F(JoinGraphTest, MaxResultsBoundsOutput) {
  JoinTreeSearchOptions options;
  options.max_results = 1;
  const auto trees = graph_.FindConnectingTrees(
      {"Customer", "Accident-Ins"}, {}, options);
  EXPECT_EQ(trees.size(), 1u);
}

TEST(JoinGraphParallelEdgesTest, AlternativeJoinConstraintsBothUsable) {
  Mkb mkb;
  RelationDef r;
  r.source = "IS1";
  r.name = "R";
  r.schema = Schema({{"a", DataType::kInt}, {"b", DataType::kInt}});
  ASSERT_TRUE(mkb.AddRelation(r).ok());
  RelationDef s;
  s.source = "IS2";
  s.name = "S";
  s.schema = Schema({{"a", DataType::kInt}, {"b", DataType::kInt}});
  ASSERT_TRUE(mkb.AddRelation(s).ok());
  ASSERT_TRUE(AddJoinConstraintText(&mkb, "J1", "R", "S", "R.a = S.a").ok());
  ASSERT_TRUE(AddJoinConstraintText(&mkb, "J2", "R", "S", "R.b = S.b").ok());
  const JoinGraph graph = JoinGraph::Build(mkb);
  EXPECT_EQ(graph.Neighbors("R").size(), 2u);
  const auto trees = graph.FindConnectingTrees({"R", "S"}, {}, {});
  ASSERT_EQ(trees.size(), 1u);  // one spanning tree per relation set
  EXPECT_EQ(trees[0].edges.size(), 1u);
}

TEST(JoinTreeTest, ToStringSmoke) {
  JoinTree tree;
  tree.relations = {"A", "B"};
  JoinConstraint jc;
  jc.id = "J";
  jc.lhs = "A";
  jc.rhs = "B";
  tree.edges.push_back(jc);
  EXPECT_NE(tree.ToString().find("J"), std::string::npos);
  EXPECT_EQ(JoinTree{}.ToString(), "(empty)");
}

// --- JoinTreeEnumerator vs. the string-keyed reference -------------------

// Union-find over relation names.
class NameUnionFind {
 public:
  void Add(const std::string& x) { parent_.emplace(x, x); }
  std::string Find(const std::string& x) {
    std::string root = x;
    while (parent_.at(root) != root) root = parent_.at(root);
    std::string cur = x;
    while (parent_.at(cur) != root) {
      std::string next = parent_.at(cur);
      parent_[cur] = root;
      cur = next;
    }
    return root;
  }
  bool Unite(const std::string& a, const std::string& b) {
    const std::string ra = Find(a);
    const std::string rb = Find(b);
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

 private:
  std::unordered_map<std::string, std::string> parent_;
};

// A string-keyed join-tree enumerator over JoinGraph's public API, used
// as the reference for JoinTreeEnumerator: relation sets are sorted name
// vectors, the frontier and visited sets are string-keyed std::sets, and
// every tree attempt runs a name union-find. It is the specification the
// index-keyed enumerator must reproduce exactly: tree sequence, edge
// order, counters, size bounds and token spend points.
class ReferenceJoinTreeEnumerator {
 public:
  ReferenceJoinTreeEnumerator(const JoinGraph& graph,
                              std::set<std::string> required,
                              std::vector<JoinConstraint> mandatory_edges,
                              const JoinTreeSearchOptions& options)
      : graph_(&graph),
        required_(std::move(required)),
        mandatory_edges_(std::move(mandatory_edges)),
        token_(options.token) {
    if (required_.empty()) return;
    for (const std::string& rel : required_) {
      if (!graph_->HasRelation(rel)) return;
    }
    const std::string& first = *required_.begin();
    for (const std::string& rel : required_) {
      if (!graph_->SameComponent(first, rel)) return;
    }
    for (const JoinConstraint& edge : mandatory_edges_) {
      if (required_.count(edge.lhs) == 0 || required_.count(edge.rhs) == 0) {
        return;
      }
    }
    for (const JoinConstraint& edge : mandatory_edges_) {
      mandatory_ids_.insert(edge.id);
    }
    max_relations_ = required_.size() + options.max_extra_relations;
    min_tree_size_ = required_.size();
    for (const std::string& source : required_) {
      std::map<std::string, size_t> dist{{source, 0}};
      std::deque<std::string> queue{source};
      while (!queue.empty()) {
        const std::string at = queue.front();
        queue.pop_front();
        for (const JoinGraph::Neighbor& n : graph_->Neighbors(at)) {
          if (dist.emplace(n.relation, dist[at] + 1).second) {
            queue.push_back(n.relation);
          }
        }
      }
      for (const std::string& target : required_) {
        min_tree_size_ = std::max(min_tree_size_, dist.at(target) + 1);
      }
    }
    std::vector<std::string> seed(required_.begin(), required_.end());
    visited_.insert(seed);
    frontier_.insert(std::move(seed));
  }

  std::optional<JoinTree> Next() {
    if (interrupted_) return std::nullopt;
    while (!frontier_.empty()) {
      if (!token_.Spend(1)) {
        interrupted_ = true;
        return std::nullopt;
      }
      const auto top = frontier_.begin();
      const std::vector<std::string> chosen = *top;
      frontier_.erase(top);
      ++sets_expanded_;
      std::optional<JoinTree> tree = TryBuildTree(chosen);
      if (tree.has_value()) {
        ++trees_yielded_;
        return tree;
      }
      if (chosen.size() >= max_relations_) {
        ++sets_cut_;
        continue;
      }
      std::set<std::string> neighbors;
      for (const std::string& rel : chosen) {
        for (const JoinGraph::Neighbor& n : graph_->Neighbors(rel)) {
          if (!std::binary_search(chosen.begin(), chosen.end(), n.relation)) {
            neighbors.insert(n.relation);
          }
        }
      }
      for (const std::string& neighbor : neighbors) {
        std::vector<std::string> next = chosen;
        next.insert(std::lower_bound(next.begin(), next.end(), neighbor),
                    neighbor);
        if (visited_.insert(next).second) frontier_.insert(std::move(next));
      }
    }
    return std::nullopt;
  }

  size_t NextTreeSizeLowerBound() const {
    if (frontier_.empty()) return static_cast<size_t>(-1);
    return std::max(frontier_.begin()->size(), min_tree_size_);
  }
  bool Exhausted() const { return frontier_.empty(); }
  bool interrupted() const { return interrupted_; }
  size_t sets_expanded() const { return sets_expanded_; }
  size_t sets_cut() const { return sets_cut_; }
  size_t trees_yielded() const { return trees_yielded_; }

 private:
  std::optional<JoinTree> TryBuildTree(
      const std::vector<std::string>& chosen) const {
    NameUnionFind uf;
    for (const std::string& rel : chosen) uf.Add(rel);
    JoinTree tree;
    tree.relations = chosen;
    for (const JoinConstraint& edge : mandatory_edges_) {
      uf.Unite(edge.lhs, edge.rhs);
      tree.edges.push_back(edge);
    }
    for (const std::string& rel : chosen) {
      for (const JoinGraph::Neighbor& n : graph_->Neighbors(rel)) {
        if (!std::binary_search(chosen.begin(), chosen.end(), n.relation)) {
          continue;
        }
        if (mandatory_ids_.count(n.edge.id) > 0) continue;
        if (uf.Unite(n.edge.lhs, n.edge.rhs)) tree.edges.push_back(n.edge);
      }
    }
    const std::string root = uf.Find(chosen.front());
    for (const std::string& rel : chosen) {
      if (uf.Find(rel) != root) return std::nullopt;
    }
    return tree;
  }

  struct SizeLexLess {
    bool operator()(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) const {
      if (a.size() != b.size()) return a.size() < b.size();
      return a < b;
    }
  };

  const JoinGraph* graph_;
  std::set<std::string> required_;
  std::vector<JoinConstraint> mandatory_edges_;
  std::set<std::string> mandatory_ids_;
  size_t max_relations_ = 0;
  size_t min_tree_size_ = 0;
  DeadlineToken token_;
  bool interrupted_ = false;
  std::set<std::vector<std::string>, SizeLexLess> frontier_;
  std::set<std::vector<std::string>> visited_;
  size_t sets_expanded_ = 0;
  size_t sets_cut_ = 0;
  size_t trees_yielded_ = 0;
};

// Everything observable about one drained enumeration.
struct EnumerationTrace {
  // Per Next() that yielded: "A,B,C | JC1(A,B) JC2(B,C)".
  std::vector<std::string> trees;
  // NextTreeSizeLowerBound() before the first Next() and after every one.
  std::vector<size_t> bounds;
  size_t sets_expanded = 0;
  size_t sets_cut = 0;
  size_t trees_yielded = 0;
  bool interrupted = false;
  bool exhausted = false;

  bool operator==(const EnumerationTrace&) const = default;
};

template <typename Enumerator>
EnumerationTrace Drain(const JoinGraph& graph,
                       const std::set<std::string>& required,
                       const std::vector<JoinConstraint>& mandatory,
                       const JoinTreeSearchOptions& options) {
  Enumerator enumerator(graph, required, mandatory, options);
  EnumerationTrace trace;
  trace.bounds.push_back(enumerator.NextTreeSizeLowerBound());
  while (std::optional<JoinTree> tree = enumerator.Next()) {
    std::string line;
    for (const std::string& rel : tree->relations) line += rel + ",";
    line += " |";
    for (const JoinConstraint& edge : tree->edges) {
      line += " " + edge.id + "(" + edge.lhs + "," + edge.rhs + ")";
    }
    trace.trees.push_back(std::move(line));
    trace.bounds.push_back(enumerator.NextTreeSizeLowerBound());
  }
  trace.bounds.push_back(enumerator.NextTreeSizeLowerBound());
  trace.sets_expanded = enumerator.sets_expanded();
  trace.sets_cut = enumerator.sets_cut();
  trace.trees_yielded = enumerator.trees_yielded();
  trace.interrupted = enumerator.interrupted();
  trace.exhausted = enumerator.Exhausted();
  return trace;
}

// Every JC edge of `graph` once, in first-seen order.
std::vector<JoinConstraint> GraphEdges(const JoinGraph& graph) {
  std::vector<JoinConstraint> edges;
  std::set<std::string> seen;
  for (const std::string& rel : graph.relations()) {
    for (const JoinGraph::Neighbor& n : graph.Neighbors(rel)) {
      if (seen.insert(n.edge.id).second) edges.push_back(n.edge);
    }
  }
  return edges;
}

// Runs `queries` random requests against `graph` through both
// enumerators, unbudgeted and under every work budget 1..N+1 (N = sets
// the unbudgeted run expands), and requires identical traces. Returns the
// number of requests that yielded at least one tree.
size_t CompareWithReference(const JoinGraph& graph, uint64_t seed,
                            size_t queries, const std::string& label) {
  std::mt19937_64 rng(seed);
  const std::vector<std::string>& relations = graph.relations();
  const std::vector<JoinConstraint> edges = GraphEdges(graph);
  const auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  size_t productive = 0;
  for (size_t q = 0; q < queries; ++q) {
    // Required: either a short random walk (adjacent relations, so
    // mandatory edges exist) or relations scattered over one component
    // (long Steiner searches that hit the size bound); now and then an
    // arbitrary extra relation that may sit in another component.
    const std::string start = relations[pick(relations.size())];
    std::set<std::string> required{start};
    const size_t want = 1 + pick(4);
    if (pick(2) == 0) {
      std::string at = start;
      for (size_t step = 0; step < 8 && required.size() < want; ++step) {
        const auto neighbors = graph.Neighbors(at);
        if (neighbors.empty()) break;
        at = neighbors[pick(neighbors.size())].relation;
        required.insert(at);
      }
    } else {
      const std::vector<std::string> component = graph.ComponentOf(start);
      for (size_t step = 0; step < 8 && required.size() < want; ++step) {
        required.insert(component[pick(component.size())]);
      }
    }
    if (pick(8) == 0) required.insert(relations[pick(relations.size())]);
    // Mandatory: edges inside the required set, rarely one outside it.
    std::vector<JoinConstraint> mandatory;
    for (const JoinConstraint& edge : edges) {
      if (required.count(edge.lhs) > 0 && required.count(edge.rhs) > 0 &&
          pick(3) == 0) {
        mandatory.push_back(edge);
      }
    }
    if (!edges.empty() && pick(10) == 0) {
      mandatory.push_back(edges[pick(edges.size())]);
    }
    // A mandatory edge whose id another graph edge also carries: that
    // graph edge is skipped as "already included" wherever it lies.
    if (!mandatory.empty() && pick(4) == 0) {
      mandatory.front().id = edges[pick(edges.size())].id;
    }
    JoinTreeSearchOptions options;
    options.max_extra_relations = pick(4);

    std::string what = label + " query " + std::to_string(q) + " {";
    for (const std::string& rel : required) what += rel + " ";
    what += "} mandatory " + std::to_string(mandatory.size()) + " extra " +
            std::to_string(options.max_extra_relations);

    const EnumerationTrace expected =
        Drain<ReferenceJoinTreeEnumerator>(graph, required, mandatory,
                                           options);
    const EnumerationTrace actual =
        Drain<JoinTreeEnumerator>(graph, required, mandatory, options);
    EXPECT_EQ(actual.trees, expected.trees) << what;
    EXPECT_EQ(actual.bounds, expected.bounds) << what;
    EXPECT_EQ(actual.sets_expanded, expected.sets_expanded) << what;
    EXPECT_EQ(actual.sets_cut, expected.sets_cut) << what;
    EXPECT_TRUE(actual == expected) << what;
    if (!expected.trees.empty()) ++productive;

    for (uint64_t budget = 1; budget <= expected.sets_expanded + 1;
         ++budget) {
      JoinTreeSearchOptions budgeted = options;
      budgeted.token = DeadlineToken::Root({budget, 0});
      const EnumerationTrace cut_expected =
          Drain<ReferenceJoinTreeEnumerator>(graph, required, mandatory,
                                             budgeted);
      budgeted.token = DeadlineToken::Root({budget, 0});
      const EnumerationTrace cut_actual =
          Drain<JoinTreeEnumerator>(graph, required, mandatory, budgeted);
      EXPECT_TRUE(cut_actual == cut_expected)
          << what << " budget " << budget;
      // The sweep reaches past the point where the budget stops binding.
      if (budget > expected.sets_expanded) {
        EXPECT_FALSE(cut_actual.interrupted) << what << " budget " << budget;
      }
    }
  }
  return productive;
}

TEST(JoinTreeEnumeratorDifferential, RandomGraphs) {
  size_t productive = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomMkbSpec spec;
    spec.num_relations = 7 + seed % 5;
    spec.extra_edge_probability = seed % 2 == 0 ? 0.35 : 0.15;
    spec.seed = seed;
    Mkb mkb = MakeRandomMkb(spec).MoveValue();
    // A parallel JC on the first edge: two edges between one pair.
    JoinConstraint parallel = mkb.join_constraints().front();
    parallel.id = "JCdup";
    ASSERT_TRUE(mkb.AddJoinConstraint(std::move(parallel)).ok());
    const JoinGraph graph = JoinGraph::Build(mkb);
    const std::string label = "random seed " + std::to_string(seed);
    productive += CompareWithReference(graph, seed, 16, label);
    // H'-style graph: one relation erased, possibly splitting components.
    const JoinGraph erased =
        graph.EraseRelation(graph.relations()[seed % graph.relations().size()]);
    productive += CompareWithReference(erased, seed + 100, 16,
                                       label + " erased");
  }
  EXPECT_GE(productive, 80u);
}

TEST(JoinTreeEnumeratorDifferential, GridGraphs) {
  for (const auto& [rows, cols] :
       std::vector<std::pair<size_t, size_t>>{{3, 3}, {2, 5}, {3, 4}, {4, 4}}) {
    const Mkb mkb = MakeGridMkb(rows, cols).MoveValue();
    const JoinGraph graph = JoinGraph::Build(mkb);
    const std::string label =
        "grid " + std::to_string(rows) + "x" + std::to_string(cols);
    EXPECT_GT(CompareWithReference(graph, rows * 10 + cols, 24, label), 0u)
        << label;
  }
}

TEST(JoinTreeEnumeratorDifferential, StarGraphs) {
  for (const size_t spokes : {3u, 6u, 9u}) {
    const Mkb mkb = MakeStarMkb(spokes).MoveValue();
    const JoinGraph graph = JoinGraph::Build(mkb);
    const std::string label = "star " + std::to_string(spokes);
    EXPECT_GT(CompareWithReference(graph, spokes, 16, label), 0u) << label;
  }
}

TEST(JoinTreeEnumeratorDifferential, CoverFanGraphs) {
  for (const size_t detours : {0u, 2u, 4u}) {
    CoverFanMkbSpec spec;
    spec.num_covers = 6;
    spec.detours = detours;
    const Mkb mkb = MakeCoverFanMkb(spec).MoveValue();
    const JoinGraph graph = JoinGraph::Build(mkb);
    const std::string label = "cover fan detours " + std::to_string(detours);
    EXPECT_GT(CompareWithReference(graph, 40 + detours, 24, label), 0u)
        << label;
    // The graph the delete-relation search actually runs on.
    EXPECT_GT(CompareWithReference(graph.EraseRelation("R0"), 50 + detours,
                                   24, label + " minus R0"),
              0u)
        << label;
  }
}

}  // namespace
}  // namespace eve
