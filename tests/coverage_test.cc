// Edge-case coverage for paths the module suites don't reach: disconnected
// covers in delete-attribute, non-numeric range clauses in the consistency
// checker, function-of evaluation through the registry, and assorted
// ToString/accessor behaviors.

#include <gtest/gtest.h>

#include "cvs/cvs.h"
#include "cvs/implication.h"
#include "cvs/r_mapping.h"
#include "cvs/rewriting.h"
#include "esql/binder.h"
#include "esql/evaluator.h"
#include "mkb/builder.h"
#include "mkb/evolution.h"
#include "sql/parser.h"
#include "hypergraph/join_graph.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

RelationDef Rel(std::string source, std::string name,
                std::vector<AttributeDef> attrs) {
  RelationDef def;
  def.source = std::move(source);
  def.name = std::move(name);
  def.schema = Schema(std::move(attrs));
  return def;
}

// A cover exists (F constraint) but its relation has no join path to the
// view's relation: the delete-attribute algorithm must report the
// unreachable cover and fall back to disabling.
TEST(DeleteAttributeEdgeTest, UnreachableCoverDisablesView) {
  Mkb mkb;
  ASSERT_TRUE(
      mkb.AddRelation(Rel("IS1", "A",
                          {{"k", DataType::kInt}, {"a", DataType::kInt}}))
          .ok());
  ASSERT_TRUE(
      mkb.AddRelation(Rel("IS2", "B",
                          {{"k", DataType::kInt}, {"b", DataType::kInt}}))
          .ok());
  // F covers A.a from B.b — but there is NO join constraint at all.
  ASSERT_TRUE(AddIdentityFunctionOf(&mkb, "F", {"A", "a"}, {"B", "b"}).ok());

  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT A.a (false, true) FROM A", mkb.catalog())
                                  .value();
  const Mkb prime = EvolveMkb(mkb, CapabilityChange::DeleteAttribute("A", "a"))
                        .MoveValue()
                        .mkb;
  const CvsResult result =
      SynchronizeDeleteAttribute(view, "A", "a", SyncContext{mkb, prime}, {})
          .value();
  EXPECT_TRUE(result.rewritings.empty());
  bool mentioned = false;
  for (const std::string& diagnostic : result.diagnostics) {
    if (diagnostic.find("not reachable") != std::string::npos) {
      mentioned = true;
    }
  }
  EXPECT_TRUE(mentioned);
}

// With a join constraint present the same cover becomes usable.
TEST(DeleteAttributeEdgeTest, ReachableCoverIsUsed) {
  Mkb mkb;
  ASSERT_TRUE(
      mkb.AddRelation(Rel("IS1", "A",
                          {{"k", DataType::kInt}, {"a", DataType::kInt}}))
          .ok());
  ASSERT_TRUE(
      mkb.AddRelation(Rel("IS2", "B",
                          {{"k", DataType::kInt}, {"b", DataType::kInt}}))
          .ok());
  ASSERT_TRUE(AddIdentityFunctionOf(&mkb, "F", {"A", "a"}, {"B", "b"}).ok());
  ASSERT_TRUE(AddJoinConstraintText(&mkb, "J", "A", "B", "A.k = B.k").ok());

  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT A.a (false, true) FROM A", mkb.catalog())
                                  .value();
  const Mkb prime = EvolveMkb(mkb, CapabilityChange::DeleteAttribute("A", "a"))
                        .MoveValue()
                        .mkb;
  const CvsResult result =
      SynchronizeDeleteAttribute(view, "A", "a", SyncContext{mkb, prime}, {})
          .value();
  ASSERT_FALSE(result.rewritings.empty());
  const ViewDefinition& rewritten = result.rewritings[0].view;
  EXPECT_TRUE(rewritten.HasFromRelation("B"));
  EXPECT_EQ(rewritten.select()[0].expr->column(), (AttributeRef{"B", "b"}));
}

// String bounds are outside the numeric range checker's scope and must not
// raise false inconsistencies.
TEST(ConsistencyEdgeTest, StringBoundsIgnored) {
  const auto conjuncts =
      ParseConjunction("R.a > 'apple' AND R.a < 'banana'").value();
  EXPECT_TRUE(CheckConjunctionConsistency(conjuncts).ok());
}

TEST(ConsistencyEdgeTest, DateConstantsConflict) {
  const auto conjuncts = ParseConjunction(
                             "R.d = DATE '2020-01-01' AND "
                             "R.d = DATE '2021-01-01'")
                             .value();
  EXPECT_FALSE(CheckConjunctionConsistency(conjuncts).ok());
}

// Function-of replacements evaluate through the registry end to end.
TEST(FunctionEvaluationTest, YearsSinceInViewSelect) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 10, 2).ok());
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT A.Holder, years_since(A.Birthday) AS Age "
      "FROM \"Accident-Ins\" A",
      mkb.catalog())
                                  .value();
  const FunctionRegistry registry = FunctionRegistry::Default();
  const Table result =
      EvaluateView(view, db, mkb.catalog(), &registry).value();
  ASSERT_GT(result.NumRows(), 0u);
  // Ages derived from birthdays must match the stored Customer ages.
  const Table customers =
      EvaluateView(ParseAndBindView(
                       "CREATE VIEW C AS SELECT C.Name, C.Age FROM "
                       "Customer C",
                       mkb.catalog())
                       .value(),
                   db, mkb.catalog())
          .value();
  EXPECT_TRUE(result.SetEquals(customers));
}

// ViewDefinition::ToString round-trips a function-of SELECT item.
TEST(ViewPrintingTest, FunctionSelectItemRoundTrips) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT years_since(A.Birthday) AS Age "
      "FROM \"Accident-Ins\" A WHERE A.Amount > 0",
      mkb.catalog())
                                  .value();
  const ViewDefinition again =
      ParseAndBindView(view.ToString(), mkb.catalog()).value();
  EXPECT_EQ(again.ToString(), view.ToString());
}

TEST(ValueOrderingTest, MixedKindFallbackIsStable) {
  // Incomparable kinds order by variant index, NULL first.
  EXPECT_TRUE(Value::Null() < Value::Bool(false));
  EXPECT_TRUE(Value::Bool(true) < Value::String("a"));
  EXPECT_FALSE(Value::String("a") < Value::Bool(true));
  // Dates after strings.
  EXPECT_TRUE(Value::String("z") < Value::MakeDate(Date(0)));
}

TEST(EnumPrintingTest, ViewExtentAndParams) {
  EXPECT_EQ(ViewExtentToString(ViewExtent::kEqual), "=");
  EXPECT_EQ(ViewExtentToString(ViewExtent::kSuperset), ">=");
  EXPECT_EQ(ViewExtentToString(ViewExtent::kSubset), "<=");
  EXPECT_EQ(ViewExtentToString(ViewExtent::kAny), "~");
  EXPECT_EQ(ViewExtentToSymbol(ViewExtent::kSuperset), "⊇");
  EXPECT_EQ((EvolutionParams{true, false}).ToString(), "(true, false)");
}

TEST(JoinConstraintTest, AsExprConjoinsClauses) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  const JoinConstraint* jc2 = mkb.GetJoinConstraint("JC2").value();
  const ExprPtr expr = jc2->AsExpr();
  std::vector<ExprPtr> flat;
  FlattenConjunction(expr, &flat);
  EXPECT_EQ(flat.size(), 2u);
}

TEST(StatusStreamTest, OperatorPrints) {
  std::ostringstream os;
  os << Status::NotFound("thing");
  EXPECT_EQ(os.str(), "not_found: thing");
}

// Synchronize() via the generic entry point covers every change kind
// against an unaffected view (smoke over the dispatch surface).
TEST(DispatchSmokeTest, AllChangeKinds) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT H.City FROM Hotels H", mkb.catalog())
                                  .value();
  RelationDef fresh = Rel("IS9", "Fresh", {{"x", DataType::kInt}});
  const CapabilityChange changes[] = {
      CapabilityChange::AddRelation(fresh),
      CapabilityChange::AddAttribute("Tour", {"Price", DataType::kDouble}),
      CapabilityChange::RenameRelation("Tour", "Trip"),
      CapabilityChange::RenameAttribute("Customer", "Phone", "Tel"),
      CapabilityChange::DeleteAttribute("Customer", "Phone"),
      CapabilityChange::DeleteRelation("Tour"),
  };
  for (const CapabilityChange& change : changes) {
    const auto evolution = EvolveMkb(mkb, change);
    ASSERT_TRUE(evolution.ok()) << change.ToString();
    const Result<CvsResult> result =
        Synchronize(view, change, SyncContext{mkb, evolution.value().mkb}, {});
    ASSERT_TRUE(result.ok()) << change.ToString();
    EXPECT_EQ(result.value().rewritings.size(), 1u) << change.ToString();
  }
}

// --- Implication with non-numeric constants --------------------------------

TEST(ImplicationDateTest, DateEqualityThroughSharedConstant) {
  const auto premises =
      ParseConjunction(
          "R.d = DATE '2020-01-01' AND S.e = DATE '2020-01-01'")
          .value();
  EXPECT_TRUE(ConjunctionImplies(premises,
                                 *ParseExpression("R.d = S.e").value()));
}

TEST(ImplicationDateTest, DifferentDatesDoNotImplyEquality) {
  const auto premises =
      ParseConjunction(
          "R.d = DATE '2020-01-01' AND S.e = DATE '2021-01-01'")
          .value();
  EXPECT_FALSE(ConjunctionImplies(premises,
                                  *ParseExpression("R.d = S.e").value()));
}

TEST(ImplicationDateTest, StringConstantsCompare) {
  const auto premises = ParseConjunction("R.a = 'x' AND S.b = 'x'").value();
  EXPECT_TRUE(ConjunctionImplies(premises,
                                 *ParseExpression("R.a = S.b").value()));
  EXPECT_TRUE(ConjunctionImplies(premises,
                                 *ParseExpression("R.a <> 'y'").value()));
}

// --- Join graph edge cases ---------------------------------------------------

TEST(JoinGraphEdgeTest, MandatoryEdgesAlreadyConnectRequired) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const JoinGraph graph = JoinGraph::Build(mkb);
  const JoinConstraint* jc1 = mkb.GetJoinConstraint("JC1").value();
  const auto trees = graph.FindConnectingTrees(
      {"Customer", "FlightRes"}, {*jc1}, {});
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].edges.size(), 1u);
  EXPECT_EQ(trees[0].edges[0].id, "JC1");
}

TEST(JoinGraphEdgeTest, EraseIsolatedRelationKeepsOthersIntact) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const JoinGraph graph = JoinGraph::Build(mkb).EraseRelation("Tour");
  EXPECT_FALSE(graph.HasRelation("Tour"));
  EXPECT_EQ(graph.Neighbors("Participant").size(), 1u);  // JC3 only
  EXPECT_TRUE(graph.SameComponent("Customer", "Participant"));
}

// --- Executor corner cases ----------------------------------------------------

TEST(ExecutorEdgeTest, EmptyBaseTableGivesEmptyResult) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  Database db;
  ASSERT_TRUE(db.CreateAllTables(mkb.catalog()).ok());  // all empty
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Name FROM Customer C, FlightRes F "
      "WHERE C.Name = F.PName",
      mkb.catalog())
                                  .value();
  for (const JoinStrategy strategy :
       {JoinStrategy::kNestedLoop, JoinStrategy::kVectorized}) {
    const Table result =
        EvaluateView(view, db, mkb.catalog(), nullptr, strategy).value();
    EXPECT_EQ(result.NumRows(), 0u);
  }
}

TEST(ExecutorEdgeTest, LiteralOnlyWhereClause) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 5, 1).ok());
  const ViewDefinition always = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Name FROM Customer C WHERE 1 = 1",
      mkb.catalog())
                                    .value();
  const ViewDefinition never = ParseAndBindView(
      "CREATE VIEW W AS SELECT C.Name FROM Customer C WHERE 1 = 2",
      mkb.catalog())
                                   .value();
  EXPECT_EQ(EvaluateView(always, db, mkb.catalog()).value().NumRows(), 5u);
  EXPECT_EQ(EvaluateView(never, db, mkb.catalog()).value().NumRows(), 0u);
  // The vectorized strategy agrees.
  EXPECT_EQ(EvaluateView(never, db, mkb.catalog(), nullptr,
                         JoinStrategy::kVectorized)
                .value()
                .NumRows(),
            0u);
}

TEST(ExecutorEdgeTest, NullsInProjection) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  Database db;
  ASSERT_TRUE(db.CreateAllTables(mkb.catalog()).ok());
  ASSERT_TRUE(db.Insert("Customer", {Value::String("x"), Value::Null(),
                                     Value::Null(), Value::Int(3)})
                  .ok());
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Addr, C.Age + 1 AS AgeNext FROM "
      "Customer C",
      mkb.catalog())
                                  .value();
  const Table result = EvaluateView(view, db, mkb.catalog()).value();
  ASSERT_EQ(result.NumRows(), 1u);
  EXPECT_TRUE(result.Row(0)[0].is_null());
  EXPECT_EQ(result.Row(0)[1], Value::Int(4));
}

// --- RMapping with duplicate JC alternatives ----------------------------------

TEST(RMappingEdgeTest, FirstImpliedJcOfParallelPairWins) {
  Mkb mkb;
  RelationDef a = Rel("IS1", "A", {{"x", DataType::kInt},
                                   {"y", DataType::kInt}});
  RelationDef b = Rel("IS2", "B", {{"x", DataType::kInt},
                                   {"y", DataType::kInt}});
  ASSERT_TRUE(mkb.AddRelation(a).ok());
  ASSERT_TRUE(mkb.AddRelation(b).ok());
  ASSERT_TRUE(AddJoinConstraintText(&mkb, "JX", "A", "B", "A.x = B.x").ok());
  ASSERT_TRUE(AddJoinConstraintText(&mkb, "JY", "A", "B", "A.y = B.y").ok());
  // View joins on y only: JY is implied, JX is not.
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT A.x FROM A, B WHERE A.y = B.y",
      mkb.catalog())
                                  .value();
  const RMapping mapping = ComputeRMapping(view, "A", mkb).value();
  ASSERT_EQ(mapping.min_edges.size(), 1u);
  EXPECT_EQ(mapping.min_edges[0].id, "JY");
}

}  // namespace
}  // namespace eve
