#include <algorithm>

#include <gtest/gtest.h>

#include "mkb/builder.h"
#include "mkb/evolution.h"
#include "workload/generator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

bool Contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

class EvolutionTest : public ::testing::Test {
 protected:
  void SetUp() override { mkb_ = MakeTravelAgencyMkb().MoveValue(); }
  Mkb mkb_;
};

TEST_F(EvolutionTest, DeleteRelationDropsAllTouchingConstraints) {
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer")).value();
  EXPECT_FALSE(report.mkb.catalog().HasRelation("Customer"));
  // JC1-JC3 and F1-F4 mention Customer.
  for (const std::string id : {"JC1", "JC2", "JC3", "F1", "F2", "F3", "F4"}) {
    EXPECT_TRUE(Contains(report.dropped_constraints, id)) << id;
  }
  // JC4-JC6, F5-F7 survive.
  EXPECT_TRUE(report.mkb.GetJoinConstraint("JC4").ok());
  EXPECT_TRUE(report.mkb.GetJoinConstraint("JC6").ok());
  EXPECT_TRUE(report.mkb.GetFunctionOf("F5").ok());
  EXPECT_EQ(report.mkb.join_constraints().size(), 3u);
  EXPECT_EQ(report.mkb.function_of_constraints().size(), 3u);
}

TEST_F(EvolutionTest, DeleteRelationDropsPcConstraints) {
  ASSERT_TRUE(AddAccidentInsPc(&mkb_).ok());
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer")).value();
  EXPECT_TRUE(Contains(report.dropped_constraints, "PC-AI"));
  EXPECT_TRUE(report.mkb.pc_constraints().empty());
}

TEST_F(EvolutionTest, DeleteMissingRelationFails) {
  EXPECT_FALSE(
      EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Nope")).ok());
}

TEST_F(EvolutionTest, DeleteAttributeWeakensJoinConstraint) {
  // Deleting Customer.Age removes the local clause of JC2 but keeps the
  // crossing clause Customer.Name = Accident-Ins.Holder.
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("Customer", "Age"))
          .value();
  EXPECT_FALSE(report.mkb.catalog().HasAttribute({"Customer", "Age"}));
  EXPECT_TRUE(Contains(report.weakened_constraints, "JC2"));
  EXPECT_EQ(report.mkb.GetJoinConstraint("JC2").value()->clauses.size(), 1u);
  // F3 (Age = f(Birthday)) must be gone.
  EXPECT_TRUE(Contains(report.dropped_constraints, "F3"));
}

TEST_F(EvolutionTest, DeleteAttributeDropsJcWhenCrossingClauseLost) {
  // Deleting Customer.Name guts JC1/JC3 entirely and reduces JC2 to the
  // non-crossing clause Age > 1, so JC2 is dropped too.
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("Customer", "Name"))
          .value();
  EXPECT_TRUE(Contains(report.dropped_constraints, "JC1"));
  EXPECT_TRUE(Contains(report.dropped_constraints, "JC2"));
  EXPECT_TRUE(Contains(report.dropped_constraints, "JC3"));
  EXPECT_TRUE(report.mkb.GetJoinConstraint("JC6").ok());
  // F1, F2, F4 target Customer.Name: dropped.
  EXPECT_TRUE(Contains(report.dropped_constraints, "F1"));
  EXPECT_TRUE(Contains(report.dropped_constraints, "F2"));
  EXPECT_TRUE(Contains(report.dropped_constraints, "F4"));
}

TEST_F(EvolutionTest, DeleteAttributeDropsPcMentioningIt) {
  ASSERT_TRUE(AddPersonExtension(&mkb_).ok());
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteAttribute("Person", "PAddr"))
          .value();
  EXPECT_TRUE(Contains(report.dropped_constraints, "PC-CP"));
  EXPECT_TRUE(Contains(report.dropped_constraints, "F-ADDR"));
  // JC-CP only uses Name: untouched.
  EXPECT_TRUE(report.mkb.GetJoinConstraint("JC-CP").ok());
}

TEST_F(EvolutionTest, RenameRelationRewritesEverything) {
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::RenameRelation("Customer", "Client"))
          .value();
  EXPECT_TRUE(report.mkb.catalog().HasRelation("Client"));
  EXPECT_FALSE(report.mkb.catalog().HasRelation("Customer"));
  EXPECT_TRUE(report.dropped_constraints.empty());
  const JoinConstraint* jc1 = report.mkb.GetJoinConstraint("JC1").value();
  EXPECT_EQ(jc1->lhs, "Client");
  EXPECT_EQ(jc1->clauses[0]->ToString(),
            "(Client.Name = FlightRes.PName)");
  const FunctionOfConstraint* f2 = report.mkb.GetFunctionOf("F2").value();
  EXPECT_EQ(f2->target, (AttributeRef{"Client", "Name"}));
}

TEST_F(EvolutionTest, RenameAttributeRewritesEverything) {
  const auto report =
      EvolveMkb(mkb_,
                CapabilityChange::RenameAttribute("Customer", "Name",
                                                  "FullName"))
          .value();
  EXPECT_TRUE(report.mkb.catalog().HasAttribute({"Customer", "FullName"}));
  const JoinConstraint* jc1 = report.mkb.GetJoinConstraint("JC1").value();
  EXPECT_EQ(jc1->clauses[0]->ToString(),
            "(Customer.FullName = FlightRes.PName)");
  const FunctionOfConstraint* f1 = report.mkb.GetFunctionOf("F1").value();
  EXPECT_EQ(f1->target, (AttributeRef{"Customer", "FullName"}));
}

TEST_F(EvolutionTest, RenameAttributeChecksTypeConvention) {
  // Renaming FlightRes.FlightNo (int) to "Name" collides with the string
  // Name attributes elsewhere.
  EXPECT_FALSE(EvolveMkb(mkb_, CapabilityChange::RenameAttribute(
                                   "FlightRes", "FlightNo", "Name"))
                   .ok());
}

TEST_F(EvolutionTest, AddRelationExtendsCatalog) {
  RelationDef def;
  def.source = "IS9";
  def.name = "Cruise";
  def.schema = Schema({{"CruiseID", DataType::kInt}});
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::AddRelation(def)).value();
  EXPECT_TRUE(report.mkb.catalog().HasRelation("Cruise"));
  EXPECT_TRUE(report.dropped_constraints.empty());
  EXPECT_EQ(report.mkb.join_constraints().size(), 6u);
}

TEST_F(EvolutionTest, AddAttributeExtendsRelation) {
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::AddAttribute(
                          "Customer", {"Email", DataType::kString}))
          .value();
  EXPECT_TRUE(report.mkb.catalog().HasAttribute({"Customer", "Email"}));
}

TEST_F(EvolutionTest, AddDuplicateRelationFails) {
  RelationDef def;
  def.source = "IS1";
  def.name = "Customer";
  def.schema = Schema({{"x", DataType::kInt}});
  EXPECT_FALSE(EvolveMkb(mkb_, CapabilityChange::AddRelation(def)).ok());
}

TEST_F(EvolutionTest, OriginalMkbIsUntouched) {
  const auto report =
      EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer")).value();
  (void)report;
  EXPECT_TRUE(mkb_.catalog().HasRelation("Customer"));
  EXPECT_EQ(mkb_.join_constraints().size(), 6u);
}

// E9 (EXPERIMENTS.md): all six capability-change operators complete on a
// 200-relation skip-edge chain MKB. Deleting attribute P100 drops the two
// constraints over it; deleting R100 drops the eight that touch R100.
TEST(EvolutionScaleTest, AllSixOperatorsOnA200RelationChain) {
  ChainMkbSpec spec;
  spec.length = 200;
  spec.skip_edges = true;
  spec.cover_distance = 2;
  const Mkb mkb = MakeChainMkb(spec).value();
  RelationDef fresh;
  fresh.source = "ISX";
  fresh.name = "Fresh";
  fresh.schema = Schema({{"f", DataType::kInt}});
  struct Case {
    CapabilityChange change;
    size_t dropped;
  };
  const Case cases[] = {
      {CapabilityChange::AddRelation(fresh), 0},
      {CapabilityChange::AddAttribute("R100", {"Extra", DataType::kInt}), 0},
      {CapabilityChange::RenameRelation("R100", "R100x"), 0},
      {CapabilityChange::RenameAttribute("R100", "P100", "P100x"), 0},
      {CapabilityChange::DeleteAttribute("R100", "P100"), 2},
      {CapabilityChange::DeleteRelation("R100"), 8},
  };
  for (const Case& c : cases) {
    const Result<MkbEvolutionReport> report = EvolveMkb(mkb, c.change);
    ASSERT_TRUE(report.ok()) << c.change.ToString() << ": " << report.status();
    EXPECT_EQ(report.value().dropped_constraints.size(), c.dropped)
        << c.change.ToString();
    EXPECT_TRUE(report.value().weakened_constraints.empty())
        << c.change.ToString();
  }
}

TEST(CapabilityChangeTest, ToStringForms) {
  EXPECT_EQ(CapabilityChange::DeleteRelation("R").ToString(),
            "delete-relation R");
  EXPECT_EQ(CapabilityChange::DeleteAttribute("R", "a").ToString(),
            "delete-attribute R.a");
  EXPECT_EQ(CapabilityChange::RenameRelation("R", "S").ToString(),
            "rename-relation R -> S");
  EXPECT_EQ(CapabilityChange::RenameAttribute("R", "a", "b").ToString(),
            "rename-attribute R.a -> R.b");
  RelationDef def;
  def.name = "N";
  def.source = "IS";
  EXPECT_EQ(CapabilityChange::AddRelation(def).ToString(),
            "add-relation N");
  EXPECT_EQ(
      CapabilityChange::AddAttribute("R", {"x", DataType::kInt}).ToString(),
      "add-attribute R.x");
}

}  // namespace
}  // namespace eve
