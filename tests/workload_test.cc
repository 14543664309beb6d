#include <gtest/gtest.h>

#include "esql/binder.h"
#include "esql/evaluator.h"
#include "hypergraph/join_graph.h"
#include "mkb/serializer.h"
#include "workload/generator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

TEST(ChainMkbTest, BuildsRequestedShape) {
  ChainMkbSpec spec;
  spec.length = 6;
  spec.skip_edges = false;
  spec.cover_distance = 1;
  const Mkb mkb = MakeChainMkb(spec).value();
  EXPECT_EQ(mkb.catalog().NumRelations(), 6u);
  EXPECT_EQ(mkb.join_constraints().size(), 5u);  // chain edges only
  // Covers: R0..R4 covered on the next relation (R5 cannot cover itself).
  EXPECT_EQ(mkb.function_of_constraints().size(), 5u);
  EXPECT_EQ(mkb.pc_constraints().size(), 5u);
  EXPECT_TRUE(mkb.catalog().HasAttribute({"R1", "C0"}));
  EXPECT_FALSE(mkb.catalog().HasAttribute({"R5", "C5"}));
}

TEST(ChainMkbTest, SkipEdgesKeepGraphConnectedUnderDeletion) {
  ChainMkbSpec spec;
  spec.length = 5;
  spec.skip_edges = true;
  const Mkb mkb = MakeChainMkb(spec).value();
  const JoinGraph graph = JoinGraph::Build(mkb);
  EXPECT_EQ(graph.Components().size(), 1u);
  const JoinGraph pruned = graph.EraseRelation("R2");
  EXPECT_EQ(pruned.Components().size(), 1u);  // skip edges bridge the gap

  ChainMkbSpec no_skip = spec;
  no_skip.skip_edges = false;
  const JoinGraph fragile =
      JoinGraph::Build(MakeChainMkb(no_skip).value()).EraseRelation("R2");
  EXPECT_EQ(fragile.Components().size(), 2u);
}

TEST(ChainMkbTest, CoverDistancePlacesMirrors) {
  ChainMkbSpec spec;
  spec.length = 8;
  spec.cover_distance = 3;
  const Mkb mkb = MakeChainMkb(spec).value();
  // R1's payload mirrored on R4.
  const auto covers = mkb.CoversOf({"R1", "P1"});
  ASSERT_EQ(covers.size(), 1u);
  EXPECT_EQ(covers[0]->source.relation, "R4");
  // Clamped at the end: R6's cover sits on R7.
  EXPECT_EQ(mkb.CoversOf({"R6", "P6"})[0]->source.relation, "R7");
}

TEST(ChainMkbTest, RejectsDegenerateLength) {
  ChainMkbSpec spec;
  spec.length = 1;
  EXPECT_FALSE(MakeChainMkb(spec).ok());
}

TEST(StarMkbTest, HubJoinsEverySpoke) {
  const Mkb mkb = MakeStarMkb(5).value();
  EXPECT_EQ(mkb.catalog().NumRelations(), 6u);
  EXPECT_EQ(mkb.join_constraints().size(), 5u);
  const JoinGraph graph = JoinGraph::Build(mkb);
  EXPECT_EQ(graph.Neighbors("R0").size(), 5u);
  EXPECT_EQ(graph.Neighbors("R3").size(), 1u);
  // Spoke payloads are covered on the hub.
  EXPECT_EQ(mkb.CoversOf({"R2", "P2"})[0]->source.relation, "R0");
  EXPECT_EQ(mkb.CoversOf({"R0", "P0"})[0]->source.relation, "R1");
}

TEST(GridMkbTest, GridAdjacency) {
  const Mkb mkb = MakeGridMkb(3, 4).value();
  EXPECT_EQ(mkb.catalog().NumRelations(), 12u);
  // Edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8 = 17.
  EXPECT_EQ(mkb.join_constraints().size(), 17u);
  const JoinGraph graph = JoinGraph::Build(mkb);
  EXPECT_EQ(graph.Components().size(), 1u);
  // Corner has 2 neighbors, center has 4.
  EXPECT_EQ(graph.Neighbors("R0").size(), 2u);
  EXPECT_EQ(graph.Neighbors("R5").size(), 4u);
}

TEST(GridMkbTest, RejectsDegenerateShapes) {
  EXPECT_FALSE(MakeGridMkb(0, 4).ok());
  EXPECT_FALSE(MakeGridMkb(3, 1).ok());
}

TEST(RandomMkbTest, ConnectedAndDeterministic) {
  RandomMkbSpec spec;
  spec.num_relations = 15;
  spec.seed = 42;
  const Mkb a = MakeRandomMkb(spec).value();
  const Mkb b = MakeRandomMkb(spec).value();
  EXPECT_EQ(SaveMkb(a), SaveMkb(b));  // deterministic under the seed
  EXPECT_EQ(a.catalog().NumRelations(), 15u);
  // Spanning tree guarantees connectivity.
  EXPECT_EQ(JoinGraph::Build(a).Components().size(), 1u);
  // At least the tree edges exist.
  EXPECT_GE(a.join_constraints().size(), 14u);
}

TEST(RandomMkbTest, DifferentSeedsDiffer) {
  RandomMkbSpec a;
  a.seed = 1;
  RandomMkbSpec b;
  b.seed = 2;
  EXPECT_NE(SaveMkb(MakeRandomMkb(a).value()),
            SaveMkb(MakeRandomMkb(b).value()));
}

TEST(RandomMkbTest, CoverProbabilityZeroMeansNoCovers) {
  RandomMkbSpec spec;
  spec.cover_probability = 0.0;
  const Mkb mkb = MakeRandomMkb(spec).value();
  EXPECT_TRUE(mkb.function_of_constraints().empty());
  EXPECT_TRUE(mkb.pc_constraints().empty());
}

TEST(RandomMkbTest, RejectsDegenerateSize) {
  RandomMkbSpec spec;
  spec.num_relations = 1;
  EXPECT_FALSE(MakeRandomMkb(spec).ok());
}

TEST(ChainViewTest, BindsAgainstChainMkb) {
  ChainMkbSpec spec;
  spec.length = 6;
  const Mkb mkb = MakeChainMkb(spec).value();
  const ViewDefinition view = MakeChainView(mkb, 1, 3).value();
  EXPECT_EQ(view.FromRelationNames(),
            (std::vector<std::string>{"R1", "R2", "R3"}));
  EXPECT_EQ(view.where().size(), 2u);
  // Rebinding validates all references.
  EXPECT_TRUE(BindView(view.ToParsedView(), mkb.catalog()).ok());
}

TEST(ChainViewTest, OutOfRangeFails) {
  ChainMkbSpec spec;
  spec.length = 4;
  const Mkb mkb = MakeChainMkb(spec).value();
  EXPECT_FALSE(MakeChainView(mkb, 2, 5).ok());
  EXPECT_FALSE(MakeChainView(mkb, 0, 0).ok());
}

TEST(RandomViewTest, ProducesBindableConnectedViews) {
  const Mkb mkb = MakeGridMkb(3, 3).value();
  std::mt19937_64 rng(42);
  for (int i = 0; i < 20; ++i) {
    const ViewDefinition view =
        MakeRandomConnectedView(mkb, &rng, 3).value();
    EXPECT_GE(view.from().size(), 2u);
    EXPECT_LE(view.from().size(), 4u);  // edge may add two relations
    EXPECT_TRUE(BindView(view.ToParsedView(), mkb.catalog()).ok());
  }
}

TEST(PopulateSyntheticTest, FillsEveryTable) {
  ChainMkbSpec spec;
  spec.length = 4;
  const Mkb mkb = MakeChainMkb(spec).value();
  Database db;
  ASSERT_TRUE(PopulateSyntheticDatabase(mkb, &db, 25, 7).ok());
  for (const std::string& rel : mkb.catalog().RelationNames()) {
    EXPECT_EQ(db.GetTable(rel).value()->NumRows(), 25u);
  }
  // Views evaluate.
  const ViewDefinition view = MakeChainView(mkb, 0, 2).value();
  const Table result = EvaluateView(view, db, mkb.catalog()).value();
  EXPECT_GT(result.NumRows(), 0u);
}

TEST(TravelAgencyDatabaseTest, ConstraintConsistentPopulation) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddPersonExtension(&mkb).ok());
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 40, 5).ok());
  // PC-AI: every Customer.Name appears in Accident-Ins.Holder.
  const Table& customer = *db.GetTable("Customer").value();
  const Table& insurance = *db.GetTable("Accident-Ins").value();
  for (size_t c = 0; c < customer.NumRows(); ++c) {
    const Tuple row = customer.Row(c);
    bool found = false;
    for (size_t i = 0; i < insurance.NumRows(); ++i) {
      if (insurance.Row(i)[0] == row[0]) found = true;
    }
    EXPECT_TRUE(found) << row[0].ToString();
  }
  // F3 holds: age reproduces from birthday.
  const Date today = Date::FromYmd(2026, 7, 7).value();
  for (size_t i = 0; i < insurance.NumRows(); ++i) {
    const Tuple ins = insurance.Row(i);
    const int64_t days =
        today.days_since_epoch() - ins[3].date_value().days_since_epoch();
    bool found_customer = false;
    for (size_t c = 0; c < customer.NumRows(); ++c) {
      const Tuple row = customer.Row(c);
      if (row[0] == ins[0]) {
        EXPECT_EQ(days / 365, row[3].int_value());
        found_customer = true;
      }
    }
    EXPECT_TRUE(found_customer);
  }
}

TEST(TravelAgencyDatabaseTest, DeterministicUnderSeed) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  Database a;
  Database b;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &a, 30, 99).ok());
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &b, 30, 99).ok());
  EXPECT_TRUE(a.GetTable("FlightRes").value()->SetEquals(
      *b.GetTable("FlightRes").value()));
}

}  // namespace
}  // namespace eve
