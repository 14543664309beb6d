#include <gtest/gtest.h>

#include "cvs/cvs.h"
#include "cvs/svs_baseline.h"
#include "esql/binder.h"
#include "esql/evaluator.h"
#include "mkb/evolution.h"
#include "workload/generator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

class CvsDeleteRelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    ASSERT_TRUE(AddAccidentInsPc(&mkb_).ok());
    view_ = ParseAndBindView(CustomerPassengersAsiaSql(), mkb_.catalog())
                .MoveValue();
    const auto evolution =
        EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer"))
            .value();
    mkb_prime_ = evolution.mkb;
  }

  Mkb mkb_;
  Mkb mkb_prime_;
  ViewDefinition view_;
};

// End-to-end reproduction of paper Examples 5-10.
TEST_F(CvsDeleteRelationTest, ProducesBothPaperRewritings) {
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "Customer",
                                SyncContext{mkb_, mkb_prime_})
          .value();
  ASSERT_EQ(result.rewritings.size(), 2u);
  // Ranked first: the Accident-Ins rewriting (extent superset via PC-AI).
  const SynchronizedView& eq13 = result.rewritings[0];
  EXPECT_TRUE(eq13.view.HasFromRelation("Accident-Ins"));
  EXPECT_EQ(eq13.legality.inferred_extent, ExtentRelation::kSuperset);
  EXPECT_TRUE(eq13.legality.legal());
  EXPECT_FALSE(eq13.is_drop);
  // Second: the FlightRes-cover rewriting.
  const SynchronizedView& alt = result.rewritings[1];
  EXPECT_FALSE(alt.view.HasFromRelation("Accident-Ins"));
  EXPECT_TRUE(alt.legality.legal());
}

TEST_F(CvsDeleteRelationTest, RewritingsEvaluateOverDatabase) {
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb_, &db, 60, 17).ok());
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "Customer",
                                SyncContext{mkb_, mkb_prime_})
          .value();
  const Table original =
      EvaluateView(view_, db, mkb_.catalog()).value();
  for (const SynchronizedView& rewriting : result.rewritings) {
    const Result<Table> evaluated =
        EvaluateView(rewriting.view, db, mkb_prime_.catalog());
    ASSERT_TRUE(evaluated.ok()) << evaluated.status();
  }
  // The Accident-Ins rewriting holds every customer (PC-AI): its extent
  // contains the original on the common interface.
  const auto empirical = CompareExtentsEmpirically(
      view_, result.rewritings[0].view, db, mkb_.catalog(),
      mkb_prime_.catalog());
  ASSERT_TRUE(empirical.ok());
  EXPECT_TRUE(empirical.value() == ExtentRelation::kEqual ||
              empirical.value() == ExtentRelation::kSuperset)
      << ExtentRelationToString(empirical.value());
}

TEST_F(CvsDeleteRelationTest, UnaffectedViewReturnedUnchanged) {
  const ViewDefinition other = ParseAndBindView(
      "CREATE VIEW V AS SELECT H.City FROM Hotels H, RentACar R "
      "WHERE H.Address = R.Location",
      mkb_.catalog())
                                   .value();
  const CvsResult result =
      SynchronizeDeleteRelation(other, "Customer",
                                SyncContext{mkb_, mkb_prime_})
          .value();
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].view.name(), "V");
  EXPECT_TRUE(result.rewritings[0].legality.legal());
}

TEST_F(CvsDeleteRelationTest, NonReplaceableRelationSkipsReplacementPath) {
  ViewDefinition rigid = view_;
  (*rigid.mutable_from())[0].params = EvolutionParams{false, false};
  const CvsResult result =
      SynchronizeDeleteRelation(rigid, "Customer",
                                SyncContext{mkb_, mkb_prime_})
          .value();
  EXPECT_TRUE(result.rewritings.empty());
  EXPECT_FALSE(result.diagnostics.empty());
}

TEST_F(CvsDeleteRelationTest, VeSupersetFiltersUnjustifiedCandidates) {
  ViewDefinition demanding = view_;
  demanding.set_extent(ViewExtent::kSuperset);
  const CvsResult result =
      SynchronizeDeleteRelation(demanding, "Customer",
                                SyncContext{mkb_, mkb_prime_})
          .value();
  // Only the Accident-Ins rewriting has PC justification.
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_TRUE(result.rewritings[0].view.HasFromRelation("Accident-Ins"));
  // The FlightRes candidate is reported as rejected.
  EXPECT_FALSE(result.diagnostics.empty());
}

TEST_F(CvsDeleteRelationTest, VeEqualDisablesView) {
  ViewDefinition demanding = view_;
  demanding.set_extent(ViewExtent::kEqual);
  const CvsResult result =
      SynchronizeDeleteRelation(demanding, "Customer",
                                SyncContext{mkb_, mkb_prime_})
          .value();
  EXPECT_TRUE(result.rewritings.empty());
}

TEST_F(CvsDeleteRelationTest, DropPathUsedWhenAllComponentsDispensable) {
  const ViewDefinition droppable = ParseAndBindView(
      "CREATE VIEW V AS SELECT F.PName (false, true), C.Age (true, true) "
      "FROM Customer C (true, true), FlightRes F "
      "WHERE (C.Name = F.PName) (true, true) AND (F.Dest = 'Asia')",
      mkb_.catalog())
                                       .value();
  const CvsResult result =
      SynchronizeDeleteRelation(droppable, "Customer",
                                SyncContext{mkb_, mkb_prime_})
          .value();
  ASSERT_FALSE(result.rewritings.empty());
  bool has_drop = false;
  for (const SynchronizedView& rewriting : result.rewritings) {
    if (rewriting.is_drop) {
      has_drop = true;
      EXPECT_FALSE(rewriting.view.HasFromRelation("Customer"));
      EXPECT_EQ(rewriting.legality.inferred_extent,
                ExtentRelation::kSuperset);
    }
  }
  EXPECT_TRUE(has_drop);
}

TEST_F(CvsDeleteRelationTest, RenamedRewritingsGetDistinctNames) {
  const CvsResult result =
      SynchronizeDeleteRelation(view_, "Customer",
                                SyncContext{mkb_, mkb_prime_})
          .value();
  ASSERT_EQ(result.rewritings.size(), 2u);
  EXPECT_NE(result.rewritings[0].view.name(),
            result.rewritings[1].view.name());
}

TEST_F(CvsDeleteRelationTest, OrConditionReferencingRIsSubstituted) {
  // A disjunctive clause over Customer attributes: outside the paper's
  // conjunctive fragment, but CVS handles it as one primitive clause and
  // substitutes R's attributes inside it.
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Name (false, true) "
      "FROM Customer C (true, true), FlightRes F "
      "WHERE (C.Name = F.PName) (false, true) "
      "AND (C.Name = 'alice' OR C.Name = 'bob') (false, true)",
      mkb_.catalog())
                                  .value();
  const CvsResult result =
      SynchronizeDeleteRelation(view, "Customer", SyncContext{mkb_, mkb_prime_})
          .value();
  ASSERT_FALSE(result.rewritings.empty());
  const ViewDefinition& rewritten = result.rewritings.front().view;
  EXPECT_FALSE(rewritten.ReferencesRelation("Customer"));
  // The OR clause survives with the replacement spliced into both arms.
  bool found_or = false;
  for (const ViewCondition& cond : rewritten.where()) {
    if (cond.clause->kind() == ExprKind::kBinary &&
        cond.clause->binary_op() == BinaryOp::kOr) {
      found_or = true;
      std::vector<AttributeRef> cols;
      cond.clause->CollectColumns(&cols);
      for (const AttributeRef& ref : cols) {
        EXPECT_NE(ref.relation, "Customer");
      }
    }
  }
  EXPECT_TRUE(found_or);
}

TEST_F(CvsDeleteRelationTest, DispensableOrConditionDroppedWhenUncoverable) {
  // The OR clause uses Customer.Phone (no cover); being dispensable, it is
  // dropped and the view still survives through the Name covers.
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Name (false, true) "
      "FROM Customer C (true, true), FlightRes F "
      "WHERE (C.Name = F.PName) (false, true) "
      "AND (C.Phone = '1' OR C.Phone = '2') (true, true)",
      mkb_.catalog())
                                  .value();
  const CvsResult result =
      SynchronizeDeleteRelation(view, "Customer", SyncContext{mkb_, mkb_prime_})
          .value();
  ASSERT_FALSE(result.rewritings.empty());
  for (const ViewCondition& cond : result.rewritings.front().view.where()) {
    EXPECT_NE(cond.clause->binary_op(), BinaryOp::kOr);
  }
}

// --- delete-attribute (paper Ex. 4) ------------------------------------------

class CvsDeleteAttributeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    ASSERT_TRUE(AddPersonExtension(&mkb_).ok());
    view_ = ParseAndBindView(AsiaCustomerSql(), mkb_.catalog()).MoveValue();
    const auto evolution =
        EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("Customer",
                                                          "Addr"))
            .value();
    mkb_prime_ = evolution.mkb;
  }

  Mkb mkb_;
  Mkb mkb_prime_;
  ViewDefinition view_;
};

// Paper Eq. (4): Addr replaced by Person.PAddr through JC-CP.
TEST_F(CvsDeleteAttributeTest, ProducesPaperEquation4) {
  const CvsResult result =
      SynchronizeDeleteAttribute(view_, "Customer", "Addr",
                                 SyncContext{mkb_, mkb_prime_}, {})
          .value();
  ASSERT_FALSE(result.rewritings.empty());
  const SynchronizedView& eq4 = result.rewritings.front();
  EXPECT_TRUE(eq4.legality.legal()) << eq4.legality.ToString();
  EXPECT_TRUE(eq4.view.HasFromRelation("Person"));
  // AAddr now reads Person.PAddr.
  bool found = false;
  for (const ViewSelectItem& item : eq4.view.select()) {
    if (item.output_name == "AAddr") {
      found = true;
      EXPECT_EQ(item.expr->column(), (AttributeRef{"Person", "PAddr"}));
      // Inherited params: still indispensable, replaceable.
      EXPECT_FALSE(item.params.dispensable);
      EXPECT_TRUE(item.params.replaceable);
    }
  }
  EXPECT_TRUE(found);
  // New join condition Customer.Name = Person.Name present.
  bool join_added = false;
  for (const ViewCondition& cond : eq4.view.where()) {
    if (cond.clause->ToString() == "(Customer.Name = Person.Name)") {
      join_added = true;
    }
  }
  EXPECT_TRUE(join_added);
  // VE = ⊇ satisfied thanks to PC-CP.
  EXPECT_EQ(eq4.legality.inferred_extent, ExtentRelation::kSuperset);
}

TEST_F(CvsDeleteAttributeTest, DispensableAttributeDropped) {
  // Deleting Customer.Phone: the Phone item is (AD = true, AR = false), so
  // the drop path applies.
  const auto evolution =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("Customer", "Phone"))
          .value();
  const CvsResult result =
      SynchronizeDeleteAttribute(view_, "Customer", "Phone",
                                 SyncContext{mkb_, evolution.mkb}, {})
          .value();
  ASSERT_FALSE(result.rewritings.empty());
  const SynchronizedView& dropped = result.rewritings.front();
  EXPECT_TRUE(dropped.is_drop);
  EXPECT_EQ(dropped.view.select().size(), 2u);
  EXPECT_TRUE(dropped.legality.legal());
  // Pure projection drop: extent equal on the common interface.
  EXPECT_EQ(dropped.legality.inferred_extent, ExtentRelation::kEqual);
}

TEST_F(CvsDeleteAttributeTest, UnreferencedAttributeLeavesViewUnchanged) {
  const auto evolution =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("Customer", "Age"))
          .value();
  const CvsResult result =
      SynchronizeDeleteAttribute(view_, "Customer", "Age",
                                 SyncContext{mkb_, evolution.mkb}, {})
          .value();
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].view.name(), view_.name());
}

TEST_F(CvsDeleteAttributeTest, NoCoverDisablesView) {
  // Delete FlightRes.Dest: used by a dispensable condition — so the view
  // survives by dropping it. Make the condition indispensable first.
  ViewDefinition rigid = view_;
  for (ViewCondition& cond : *rigid.mutable_where()) {
    cond.params = EvolutionParams{false, true};
  }
  const auto evolution =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("FlightRes", "Dest"))
          .value();
  const CvsResult result =
      SynchronizeDeleteAttribute(rigid, "FlightRes", "Dest",
                                 SyncContext{mkb_, evolution.mkb}, {})
          .value();
  EXPECT_TRUE(result.rewritings.empty());
  EXPECT_FALSE(result.diagnostics.empty());
}

TEST_F(CvsDeleteAttributeTest, DispensableConditionDroppedWidensExtent) {
  // Default AsiaCustomerSql: (F.Dest = 'Asia') is (CD = true): deleting
  // Dest drops the condition and widens the extent.
  const auto evolution =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("FlightRes", "Dest"))
          .value();
  const CvsResult result =
      SynchronizeDeleteAttribute(view_, "FlightRes", "Dest",
                                 SyncContext{mkb_, evolution.mkb}, {})
          .value();
  ASSERT_FALSE(result.rewritings.empty());
  EXPECT_TRUE(result.rewritings[0].is_drop);
  EXPECT_EQ(result.rewritings[0].legality.inferred_extent,
            ExtentRelation::kSuperset);
}

// --- Synchronize dispatch ------------------------------------------------------

class SynchronizeDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    view_ = ParseAndBindView(CustomerPassengersAsiaSql(), mkb_.catalog())
                .MoveValue();
  }
  Mkb mkb_;
  ViewDefinition view_;
};

TEST_F(SynchronizeDispatchTest, AddChangesAreNoOps) {
  RelationDef def;
  def.source = "IS9";
  def.name = "New";
  def.schema = Schema({{"x", DataType::kInt}});
  const CapabilityChange change = CapabilityChange::AddRelation(def);
  const auto evolution = EvolveMkb(mkb_, change).value();
  const CvsResult result =
      Synchronize(view_, change, SyncContext{mkb_, evolution.mkb}, {}).value();
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].view.ToString(), view_.ToString());
}

TEST_F(SynchronizeDispatchTest, RenameRelationRewritesReferences) {
  const CapabilityChange change =
      CapabilityChange::RenameRelation("Customer", "Client");
  const auto evolution = EvolveMkb(mkb_, change).value();
  const CvsResult result =
      Synchronize(view_, change, SyncContext{mkb_, evolution.mkb}, {}).value();
  ASSERT_EQ(result.rewritings.size(), 1u);
  const ViewDefinition& renamed = result.rewritings[0].view;
  EXPECT_TRUE(renamed.HasFromRelation("Client"));
  EXPECT_FALSE(renamed.ReferencesRelation("Customer"));
  // Rebinding against MKB' succeeds.
  EXPECT_TRUE(BindView(renamed.ToParsedView(), evolution.mkb.catalog()).ok());
}

TEST_F(SynchronizeDispatchTest, RenameAttributeRewritesReferences) {
  const CapabilityChange change =
      CapabilityChange::RenameAttribute("FlightRes", "Dest", "Destination");
  const auto evolution = EvolveMkb(mkb_, change).value();
  const CvsResult result =
      Synchronize(view_, change, SyncContext{mkb_, evolution.mkb}, {}).value();
  const ViewDefinition& renamed = result.rewritings[0].view;
  EXPECT_TRUE(renamed.ReferencesAttribute({"FlightRes", "Destination"}));
  EXPECT_FALSE(renamed.ReferencesAttribute({"FlightRes", "Dest"}));
}

TEST_F(SynchronizeDispatchTest, DeleteDispatchesToCvs) {
  const CapabilityChange change =
      CapabilityChange::DeleteRelation("Customer");
  const auto evolution = EvolveMkb(mkb_, change).value();
  const CvsResult result =
      Synchronize(view_, change, SyncContext{mkb_, evolution.mkb}, {}).value();
  EXPECT_FALSE(result.rewritings.empty());
  EXPECT_FALSE(result.rewritings[0].view.ReferencesRelation("Customer"));
}

// --- SVS baseline ----------------------------------------------------------------

TEST(SvsBaselineTest, OneStepReplacementStillFound) {
  // Travel agency: both covers are one step away, so SVS matches CVS.
  Mkb mkb = MakeTravelAgencyMkb().value();
  const ViewDefinition view =
      ParseAndBindView(CustomerPassengersAsiaSql(), mkb.catalog()).value();
  const auto evolution =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("Customer")).value();
  const CvsResult svs =
      SvsSynchronizeDeleteRelation(view, "Customer", mkb, evolution.mkb)
          .value();
  EXPECT_EQ(svs.rewritings.size(), 2u);
}

TEST(SvsBaselineTest, MultiHopCoverOnlyFoundByCvs) {
  // Chain R0-R1-...; view over {R0, R1}; delete R1. The cover of R1.P1
  // sits at distance 3 (on R4), reachable only through intermediates.
  ChainMkbSpec spec;
  spec.length = 8;
  spec.skip_edges = true;
  spec.cover_distance = 3;
  const Mkb mkb = MakeChainMkb(spec).value();
  const ViewDefinition view = MakeChainView(mkb, 0, 2).value();
  const auto evolution =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("R1")).value();

  const CvsResult svs =
      SvsSynchronizeDeleteRelation(view, "R1", mkb, evolution.mkb).value();
  EXPECT_TRUE(svs.rewritings.empty());

  const CvsResult cvs =
      SynchronizeDeleteRelation(view, "R1", SyncContext{mkb, evolution.mkb})
          .value();
  ASSERT_FALSE(cvs.rewritings.empty());
  // The cover relation R4 must be joined in.
  EXPECT_TRUE(cvs.rewritings[0].view.HasFromRelation("R4"));
}

TEST(SvsBaselineTest, DirectCoverFoundByBoth) {
  ChainMkbSpec spec;
  spec.length = 6;
  spec.skip_edges = true;
  spec.cover_distance = 1;  // cover of R1.P1 lives on R2, adjacent to R0?
  const Mkb mkb = MakeChainMkb(spec).value();
  const ViewDefinition view = MakeChainView(mkb, 0, 2).value();
  const auto evolution =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("R1")).value();
  // Cover of R1.P1 is on R2; R0—R2 are joined by the skip edge JS0, so
  // even the one-step SVS succeeds.
  const CvsResult svs =
      SvsSynchronizeDeleteRelation(view, "R1", mkb, evolution.mkb).value();
  EXPECT_FALSE(svs.rewritings.empty());
}

// E6 (EXPERIMENTS.md): chain federation, view over {R0, R1}, delete R1,
// with the cover of R1.P1 at join distance d from R0. SVS (one step
// away) preserves the view only at d = 1, via the R0-R2 skip edge; CVS,
// searching up to 6 extra relations, preserves it at every d in 1..6.
TEST(SvsBaselineTest, CoverDistanceSweepMatchesE6) {
  for (size_t distance = 1; distance <= 6; ++distance) {
    SCOPED_TRACE("cover distance " + std::to_string(distance));
    ChainMkbSpec spec;
    spec.length = 10;
    spec.skip_edges = true;
    spec.cover_distance = distance;
    const Mkb mkb = MakeChainMkb(spec).value();
    const ViewDefinition view = MakeChainView(mkb, 0, 2).value();
    const Mkb prime =
        EvolveMkb(mkb, CapabilityChange::DeleteRelation("R1")).value().mkb;
    const CvsResult svs =
        SvsSynchronizeDeleteRelation(view, "R1", mkb, prime).value();
    EXPECT_EQ(svs.ViewPreserved(), distance == 1);
    CvsOptions deep;
    deep.replacement.max_extra_relations = 6;
    const CvsResult cvs =
        SynchronizeDeleteRelation(view, "R1", SyncContext{mkb, prime}, deep)
            .value();
    EXPECT_TRUE(cvs.ViewPreserved());
  }
}

// --- E5: Fig. 3 evolution-parameter semantics ------------------------------

// How the first-ranked rewriting treats the probe view's Customer item.
std::string DescribeOutcome(const CvsResult& result) {
  if (result.rewritings.empty()) return "disabled";
  const SynchronizedView& best = result.rewritings.front();
  if (best.is_drop) return "drop";
  for (const ViewSelectItem& item : best.view.select()) {
    if (item.output_name == "Name") return "replaced";
  }
  return "attr dropped";
}

// All 16 (AD, AR) x (RD, RR) settings on a probe view (one Customer
// attribute, one indispensable join condition with FlightRes) under
// delete-relation Customer. RR = false blocks the replacement, and the
// indispensable join condition blocks dropping Customer, so the view is
// disabled; (AD, AR) = (false, false) disables it under every relation
// setting; with RR = true a replaceable attribute is rewritten through a
// cover and a dispensable non-replaceable one is dropped.
TEST(EvolutionParamsTest, Fig3MatrixUnderDeleteRelation) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const Mkb prime =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("Customer"))
          .value()
          .mkb;
  struct Cell {
    EvolutionParams attribute;
    EvolutionParams relation;
    const char* outcome;
  };
  const Cell cells[] = {
      {{false, false}, {false, false}, "disabled"},
      {{false, false}, {false, true}, "disabled"},
      {{false, false}, {true, false}, "disabled"},
      {{false, false}, {true, true}, "disabled"},
      {{false, true}, {false, false}, "disabled"},
      {{false, true}, {false, true}, "replaced"},
      {{false, true}, {true, false}, "disabled"},
      {{false, true}, {true, true}, "replaced"},
      {{true, false}, {false, false}, "disabled"},
      {{true, false}, {false, true}, "attr dropped"},
      {{true, false}, {true, false}, "disabled"},
      {{true, false}, {true, true}, "attr dropped"},
      {{true, true}, {false, false}, "disabled"},
      {{true, true}, {false, true}, "replaced"},
      {{true, true}, {true, false}, "disabled"},
      {{true, true}, {true, true}, "replaced"},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE("attribute " + cell.attribute.ToString() + ", relation " +
                 cell.relation.ToString());
    ViewDefinition view = ParseAndBindView(
                              "CREATE VIEW Probe AS "
                              "SELECT C.Name, F.Airline (true, true) "
                              "FROM Customer C, FlightRes F "
                              "WHERE C.Name = F.PName",
                              mkb.catalog())
                              .value();
    (*view.mutable_select())[0].params = cell.attribute;
    (*view.mutable_from())[0].params = cell.relation;
    const CvsResult result =
        SynchronizeDeleteRelation(view, "Customer", SyncContext{mkb, prime})
            .value();
    EXPECT_EQ(DescribeOutcome(result), cell.outcome);
  }
}

// --- E7: scalability shape --------------------------------------------------

// The view survives deleting R1 on skip-edge chains of every size: the
// R-mapping anchors the search, so MKB size does not change the answer.
TEST(ChainScalingTest, ViewPreservedAtEveryChainSize) {
  for (const size_t length : {10u, 50u, 200u, 1000u}) {
    SCOPED_TRACE("chain length " + std::to_string(length));
    ChainMkbSpec spec;
    spec.length = length;
    spec.skip_edges = true;
    spec.cover_distance = 2;
    const Mkb mkb = MakeChainMkb(spec).value();
    const ViewDefinition view = MakeChainView(mkb, 0, 3).value();
    const Mkb prime =
        EvolveMkb(mkb, CapabilityChange::DeleteRelation("R1")).value().mkb;
    const CvsResult result =
        SynchronizeDeleteRelation(view, "R1", SyncContext{mkb, prime})
            .value();
    EXPECT_TRUE(result.ViewPreserved());
    EXPECT_EQ(result.rewritings.size(), 1u);
  }
}

// The search-bound ablation: with the cover at distance 4 on a 24-chain,
// the view is lost at max_extra_relations 0 and 1 and preserved from 2 on.
TEST(ChainScalingTest, SearchBoundPreservesFromTwoExtraRelations) {
  ChainMkbSpec spec;
  spec.length = 24;
  spec.skip_edges = true;
  spec.cover_distance = 4;
  const Mkb mkb = MakeChainMkb(spec).value();
  const ViewDefinition view = MakeChainView(mkb, 0, 2).value();
  const Mkb prime =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("R1")).value().mkb;
  for (size_t bound = 0; bound <= 6; ++bound) {
    CvsOptions options;
    options.replacement.max_extra_relations = bound;
    const CvsResult result =
        SynchronizeDeleteRelation(view, "R1", SyncContext{mkb, prime},
                                  options)
            .value();
    EXPECT_EQ(result.ViewPreserved(), bound >= 2) << "bound " << bound;
  }
}

}  // namespace
}  // namespace eve
