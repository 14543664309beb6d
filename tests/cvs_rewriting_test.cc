#include <gtest/gtest.h>

#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "cvs/rewriting.h"
#include "esql/binder.h"
#include "hypergraph/join_graph.h"
#include "mkb/evolution.h"
#include "sql/parser.h"
#include "support/r_replacement_oracle.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

class SpliceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    view_ = ParseAndBindView(CustomerPassengersAsiaSql(), mkb_.catalog())
                .MoveValue();
    mapping_ = ComputeRMapping(view_, "Customer", mkb_).MoveValue();
    auto evolution =
        EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer"))
            .MoveValue();
    mkb_prime_ = std::move(evolution.mkb);
    candidates_ = ComputeRReplacements(view_, mapping_, mkb_,
                                       JoinGraph::Build(mkb_prime_), {})
                      .MoveValue();
  }

  const ReplacementCandidate& CandidateWith(const std::string& relation) {
    for (const ReplacementCandidate& c : candidates_) {
      if (std::binary_search(c.tree.relations.begin(),
                             c.tree.relations.end(), relation)) {
        return c;
      }
    }
    ADD_FAILURE() << "no candidate with " << relation;
    return candidates_.front();
  }

  Mkb mkb_;
  Mkb mkb_prime_;
  ViewDefinition view_;
  RMapping mapping_;
  std::vector<ReplacementCandidate> candidates_;
};

// Paper Ex. 10 / Eq. (13): the Accident-Ins rewriting.
TEST_F(SpliceTest, PaperEquation13Structure) {
  const ViewDefinition rewritten =
      SpliceRewriting(view_, mapping_, CandidateWith("Accident-Ins"), "V2")
          .value();
  EXPECT_EQ(rewritten.name(), "V2");
  EXPECT_EQ(rewritten.extent(), view_.extent());
  // FROM: Accident-Ins, FlightRes, Participant (Customer gone).
  EXPECT_EQ(rewritten.FromRelationNames(),
            (std::vector<std::string>{"FlightRes", "Participant",
                                      "Accident-Ins"}));
  // SELECT: Holder as Name, f(Birthday) as Age, plus the two Participant
  // items.
  ASSERT_EQ(rewritten.select().size(), 4u);
  EXPECT_EQ(rewritten.select()[0].output_name, "Name");
  EXPECT_EQ(rewritten.select()[0].expr->column(),
            (AttributeRef{"Accident-Ins", "Holder"}));
  EXPECT_EQ(rewritten.select()[1].output_name, "Age");
  EXPECT_EQ(rewritten.select()[1].expr->kind(), ExprKind::kBinary);
  // WHERE: the join clause through JC6 replaces C.Name = F.PName.
  bool has_jc6_clause = false;
  for (const ViewCondition& cond : rewritten.where()) {
    if (cond.clause->ToString() ==
        "(FlightRes.PName = Accident-Ins.Holder)") {
      has_jc6_clause = true;
      EXPECT_FALSE(cond.params.dispensable);
      EXPECT_TRUE(cond.params.replaceable);
    }
  }
  EXPECT_TRUE(has_jc6_clause);
  EXPECT_EQ(rewritten.where().size(), 4u);
  // The view no longer references Customer anywhere.
  EXPECT_FALSE(rewritten.ReferencesRelation("Customer"));
}

TEST_F(SpliceTest, ReplacementRelationInheritsRParams) {
  // Customer was (true, true) in Eq. 5; Accident-Ins inherits that.
  const ViewDefinition rewritten =
      SpliceRewriting(view_, mapping_, CandidateWith("Accident-Ins"), "V2")
          .value();
  for (const ViewRelation& rel : rewritten.from()) {
    if (rel.name == "Accident-Ins") {
      EXPECT_TRUE(rel.params.dispensable);
      EXPECT_TRUE(rel.params.replaceable);
    }
  }
}

TEST_F(SpliceTest, FlightResCandidateDropsDispensableAge) {
  const ReplacementCandidate* flightres_only = nullptr;
  for (const ReplacementCandidate& c : candidates_) {
    if (c.tree.relations == std::vector<std::string>{"FlightRes"}) {
      flightres_only = &c;
    }
  }
  ASSERT_NE(flightres_only, nullptr);
  const ViewDefinition rewritten =
      SpliceRewriting(view_, mapping_, *flightres_only, "V2").value();
  // Age dropped; Name replaced by FlightRes.PName.
  ASSERT_EQ(rewritten.select().size(), 3u);
  EXPECT_EQ(rewritten.select()[0].output_name, "Name");
  EXPECT_EQ(rewritten.select()[0].expr->column(),
            (AttributeRef{"FlightRes", "PName"}));
  EXPECT_EQ(rewritten.FromRelationNames(),
            (std::vector<std::string>{"FlightRes", "Participant"}));
}

TEST_F(SpliceTest, SurvivingConditionsKeepTheirParams) {
  const ViewDefinition rewritten =
      SpliceRewriting(view_, mapping_, CandidateWith("Accident-Ins"), "V2")
          .value();
  // (F.Dest = 'Asia') kept with its original (false, true).
  bool found = false;
  for (const ViewCondition& cond : rewritten.where()) {
    if (cond.clause->ToString() == "(FlightRes.Dest = 'Asia')") {
      found = true;
      EXPECT_FALSE(cond.params.dispensable);
    }
  }
  EXPECT_TRUE(found);
}

// --- DropRelationRewriting -------------------------------------------------

TEST(DropRelationTest, DropsDispensableComponents) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT F.PName (false, true), C.Age (true, true) "
      "FROM Customer C (true, true), FlightRes F "
      "WHERE (C.Name = F.PName) (true, true) AND (F.Dest = 'Asia')",
      mkb.catalog())
                                  .value();
  const ViewDefinition dropped =
      DropRelationRewriting(view, "Customer", "V2").value();
  EXPECT_EQ(dropped.FromRelationNames(),
            (std::vector<std::string>{"FlightRes"}));
  EXPECT_EQ(dropped.select().size(), 1u);
  EXPECT_EQ(dropped.where().size(), 1u);
}

TEST(DropRelationTest, RefusesIndispensableComponents) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Name (false, true) "
      "FROM Customer C (true, true), FlightRes F WHERE C.Name = F.PName",
      mkb.catalog())
                                  .value();
  EXPECT_EQ(DropRelationRewriting(view, "Customer", "V2").status().code(),
            StatusCode::kViewDisabled);
}

TEST(DropRelationTest, RefusesIndispensableRelation) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const ViewDefinition view = ParseAndBindView(
      "CREATE VIEW V AS SELECT F.PName FROM Customer C (false, true), "
      "FlightRes F",
      mkb.catalog())
                                  .value();
  EXPECT_EQ(DropRelationRewriting(view, "Customer", "V2").status().code(),
            StatusCode::kViewDisabled);
}

// --- Consistency check -------------------------------------------------------

std::vector<ExprPtr> Conjuncts(std::string_view text) {
  return ParseConjunction(text).value();
}

TEST(ConsistencyTest, AcceptsSatisfiableConjunctions) {
  EXPECT_TRUE(CheckConjunctionConsistency(
                  Conjuncts("R.a = S.b AND R.c > 1 AND R.c < 5"))
                  .ok());
  EXPECT_TRUE(CheckConjunctionConsistency(Conjuncts("R.a = 'Asia'")).ok());
  EXPECT_TRUE(CheckConjunctionConsistency({}).ok());
}

TEST(ConsistencyTest, DetectsConflictingConstants) {
  EXPECT_FALSE(CheckConjunctionConsistency(
                   Conjuncts("R.a = 'Asia' AND R.a = 'Europe'"))
                   .ok());
  EXPECT_FALSE(
      CheckConjunctionConsistency(Conjuncts("R.a = 1 AND R.a = 2")).ok());
}

TEST(ConsistencyTest, PropagatesThroughEqualityGroups) {
  EXPECT_FALSE(CheckConjunctionConsistency(
                   Conjuncts("R.a = S.b AND R.a = 1 AND S.b = 2"))
                   .ok());
  EXPECT_TRUE(CheckConjunctionConsistency(
                  Conjuncts("R.a = S.b AND R.a = 1 AND S.b = 1"))
                  .ok());
}

TEST(ConsistencyTest, DetectsEmptyRanges) {
  EXPECT_FALSE(CheckConjunctionConsistency(
                   Conjuncts("R.a > 5 AND R.a < 3"))
                   .ok());
  EXPECT_FALSE(CheckConjunctionConsistency(
                   Conjuncts("R.a > 5 AND R.a < 5"))
                   .ok());
  EXPECT_TRUE(CheckConjunctionConsistency(
                  Conjuncts("R.a >= 5 AND R.a <= 5"))
                  .ok());
}

TEST(ConsistencyTest, ConstantVersusRange) {
  EXPECT_FALSE(CheckConjunctionConsistency(
                   Conjuncts("R.a = 10 AND R.a < 5"))
                   .ok());
  EXPECT_FALSE(CheckConjunctionConsistency(
                   Conjuncts("R.a = 1 AND R.a > 1"))
                   .ok());
  EXPECT_TRUE(CheckConjunctionConsistency(
                  Conjuncts("R.a = 4 AND R.a > 1 AND R.a <= 4"))
                  .ok());
}

TEST(ConsistencyTest, ConstantOnlyClauses) {
  EXPECT_FALSE(CheckConjunctionConsistency(Conjuncts("1 = 2")).ok());
  EXPECT_TRUE(CheckConjunctionConsistency(Conjuncts("2 = 2")).ok());
  EXPECT_FALSE(CheckConjunctionConsistency(Conjuncts("'a' = 'b'")).ok());
}

TEST(ConsistencyTest, LiteralOnLeftNormalized) {
  EXPECT_FALSE(CheckConjunctionConsistency(
                   Conjuncts("5 < R.a AND R.a < 3"))
                   .ok());
}

TEST(ConsistencyTest, ComplexClausesAreIgnored) {
  // Clauses the checker cannot reason about must not trigger false alarms.
  EXPECT_TRUE(CheckConjunctionConsistency(
                  Conjuncts("R.a + 1 = S.b AND R.a = 1 AND S.b = 5"))
                  .ok());
}

}  // namespace
}  // namespace eve
