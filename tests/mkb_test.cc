#include <gtest/gtest.h>

#include "mkb/builder.h"
#include "mkb/mkb.h"
#include "cvs/cvs.h"
#include "esql/binder.h"
#include "mkb/evolution.h"
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

class MkbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(mkb_.AddRelation(Rel("IS1", "R",
                                     {{"a", DataType::kInt},
                                      {"b", DataType::kString}}))
                    .ok());
    ASSERT_TRUE(mkb_.AddRelation(Rel("IS2", "S",
                                     {{"c", DataType::kInt},
                                      {"d", DataType::kString}}))
                    .ok());
    ASSERT_TRUE(mkb_.AddRelation(Rel("IS3", "T", {{"e", DataType::kInt}}))
                    .ok());
  }
  Mkb mkb_;
};

TEST_F(MkbTest, AddJoinConstraintValidates) {
  EXPECT_TRUE(
      AddJoinConstraintText(&mkb_, "J1", "R", "S", "R.a = S.c").ok());
  // Duplicate id.
  EXPECT_EQ(AddJoinConstraintText(&mkb_, "J1", "R", "T", "R.a = T.e").code(),
            StatusCode::kAlreadyExists);
  // Unknown relation.
  EXPECT_EQ(AddJoinConstraintText(&mkb_, "J2", "R", "X", "R.a = R.a").code(),
            StatusCode::kNotFound);
  // Self join.
  EXPECT_EQ(AddJoinConstraintText(&mkb_, "J3", "R", "R", "R.a = R.a").code(),
            StatusCode::kInvalidArgument);
  // Clause referencing a third relation.
  EXPECT_EQ(
      AddJoinConstraintText(&mkb_, "J4", "R", "S", "R.a = T.e").code(),
      StatusCode::kInvalidArgument);
  // Unknown attribute.
  EXPECT_EQ(AddJoinConstraintText(&mkb_, "J5", "R", "S", "R.zz = S.c").code(),
            StatusCode::kNotFound);
  // No crossing clause.
  EXPECT_EQ(AddJoinConstraintText(&mkb_, "J6", "R", "S", "R.a > 1").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MkbTest, JoinConstraintWithLocalClause) {
  // A crossing clause plus a single-relation clause (like the paper's JC2).
  EXPECT_TRUE(AddJoinConstraintText(&mkb_, "J1", "R", "S",
                                    "R.a = S.c AND R.a > 1")
                  .ok());
  const JoinConstraint* jc = mkb_.GetJoinConstraint("J1").value();
  EXPECT_EQ(jc->clauses.size(), 2u);
  EXPECT_EQ(jc->Other("R"), "S");
  EXPECT_EQ(jc->Other("S"), "R");
  EXPECT_TRUE(jc->Involves("R"));
  EXPECT_FALSE(jc->Involves("T"));
}

TEST_F(MkbTest, AddFunctionOfValidates) {
  EXPECT_TRUE(AddIdentityFunctionOf(&mkb_, "F1", {"R", "a"}, {"S", "c"})
                  .ok());
  // Same relation on both sides.
  EXPECT_EQ(
      AddIdentityFunctionOf(&mkb_, "F2", {"R", "a"}, {"R", "b"}).code(),
      StatusCode::kInvalidArgument);
  // Unknown attributes.
  EXPECT_EQ(
      AddIdentityFunctionOf(&mkb_, "F3", {"R", "zz"}, {"S", "c"}).code(),
      StatusCode::kNotFound);
  EXPECT_EQ(
      AddIdentityFunctionOf(&mkb_, "F4", {"R", "a"}, {"S", "zz"}).code(),
      StatusCode::kNotFound);
}

TEST_F(MkbTest, FunctionOfBodyRestrictedToSource) {
  // Body referencing an attribute other than the source: rejected.
  EXPECT_FALSE(
      AddFunctionOfText(&mkb_, "F1", "R.a", "S.c + T.e").ok());
  // Arithmetic over the source is fine.
  EXPECT_TRUE(AddFunctionOfText(&mkb_, "F2", "R.a", "S.c * 2 + 1").ok());
  const FunctionOfConstraint* fc = mkb_.GetFunctionOf("F2").value();
  EXPECT_FALSE(fc->IsIdentity());
  EXPECT_EQ(fc->target, (AttributeRef{"R", "a"}));
  EXPECT_EQ(fc->source, (AttributeRef{"S", "c"}));
}

TEST_F(MkbTest, IdentityDetection) {
  ASSERT_TRUE(AddIdentityFunctionOf(&mkb_, "F1", {"R", "a"}, {"S", "c"})
                  .ok());
  EXPECT_TRUE(mkb_.GetFunctionOf("F1").value()->IsIdentity());
}

TEST_F(MkbTest, AddPCConstraintValidates) {
  EXPECT_TRUE(AddProjectionPC(&mkb_, "P1", "R", "a", SetRelation::kSuperset,
                              "S", "c")
                  .ok());
  // Arity mismatch.
  EXPECT_FALSE(AddProjectionPC(&mkb_, "P2", "R", "a, b",
                               SetRelation::kSuperset, "S", "c")
                   .ok());
  // Unknown relation.
  EXPECT_FALSE(AddProjectionPC(&mkb_, "P3", "X", "a", SetRelation::kEqual,
                               "S", "c")
                   .ok());
  // Attribute from the wrong relation.
  PCConstraint pc;
  pc.id = "P4";
  pc.lhs_relation = "R";
  pc.rhs_relation = "S";
  pc.lhs_attrs = {{"S", "c"}};
  pc.rhs_attrs = {{"S", "c"}};
  EXPECT_FALSE(mkb_.AddPCConstraint(pc).ok());
}

TEST_F(MkbTest, QueriesByRelation) {
  ASSERT_TRUE(AddJoinConstraintText(&mkb_, "J1", "R", "S", "R.a = S.c").ok());
  ASSERT_TRUE(AddJoinConstraintText(&mkb_, "J2", "S", "T", "S.c = T.e").ok());
  EXPECT_EQ(mkb_.JoinConstraintsOf("S").size(), 2u);
  EXPECT_EQ(mkb_.JoinConstraintsOf("R").size(), 1u);
  EXPECT_EQ(mkb_.JoinConstraintsOf("X").size(), 0u);
  EXPECT_EQ(mkb_.JoinConstraintsBetween("R", "S").size(), 1u);
  EXPECT_EQ(mkb_.JoinConstraintsBetween("S", "R").size(), 1u);
  EXPECT_EQ(mkb_.JoinConstraintsBetween("R", "T").size(), 0u);
}

TEST_F(MkbTest, CoversOfLooksUpByTarget) {
  ASSERT_TRUE(AddIdentityFunctionOf(&mkb_, "F1", {"R", "a"}, {"S", "c"})
                  .ok());
  ASSERT_TRUE(AddIdentityFunctionOf(&mkb_, "F2", {"R", "a"}, {"T", "e"})
                  .ok());
  EXPECT_EQ(mkb_.CoversOf({"R", "a"}).size(), 2u);
  EXPECT_EQ(mkb_.CoversOf({"R", "b"}).size(), 0u);
}

TEST_F(MkbTest, PCConstraintsBetweenBothOrientations) {
  ASSERT_TRUE(AddProjectionPC(&mkb_, "P1", "R", "a", SetRelation::kSuperset,
                              "S", "c")
                  .ok());
  EXPECT_EQ(mkb_.PCConstraintsBetween("R", "S").size(), 1u);
  EXPECT_EQ(mkb_.PCConstraintsBetween("S", "R").size(), 1u);
  EXPECT_EQ(mkb_.PCConstraintsBetween("R", "T").size(), 0u);
}

TEST_F(MkbTest, RemoveConstraintByIdAcrossKinds) {
  ASSERT_TRUE(AddJoinConstraintText(&mkb_, "J1", "R", "S", "R.a = S.c").ok());
  ASSERT_TRUE(AddIdentityFunctionOf(&mkb_, "F1", {"R", "a"}, {"S", "c"})
                  .ok());
  ASSERT_TRUE(AddProjectionPC(&mkb_, "P1", "R", "a", SetRelation::kSuperset,
                              "S", "c")
                  .ok());
  EXPECT_TRUE(mkb_.RemoveConstraint("F1").ok());
  EXPECT_FALSE(mkb_.GetFunctionOf("F1").ok());
  EXPECT_TRUE(mkb_.RemoveConstraint("J1").ok());
  EXPECT_TRUE(mkb_.RemoveConstraint("P1").ok());
  EXPECT_TRUE(mkb_.pc_constraints().empty());
  EXPECT_EQ(mkb_.RemoveConstraint("J1").code(), StatusCode::kNotFound);
  // The freed id is reusable.
  EXPECT_TRUE(AddJoinConstraintText(&mkb_, "J1", "R", "T", "R.a = T.e").ok());
}

TEST_F(MkbTest, RetractedCoverNoLongerPreservesViews) {
  // End-to-end: retracting the covering F constraint turns a curable view
  // into a disabled one.
  Mkb travel = MakeTravelAgencyMkb().value();
  const Result<ViewDefinition> view = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Name (false, true) FROM Customer C, "
      "FlightRes F WHERE C.Name = F.PName",
      travel.catalog());
  ASSERT_TRUE(view.ok());
  // Remove every cover of Customer.Name.
  ASSERT_TRUE(travel.RemoveConstraint("F1").ok());
  ASSERT_TRUE(travel.RemoveConstraint("F2").ok());
  ASSERT_TRUE(travel.RemoveConstraint("F4").ok());
  const auto evolution =
      EvolveMkb(travel, CapabilityChange::DeleteRelation("Customer"))
          .value();
  const CvsResult result =
      SynchronizeDeleteRelation(view.value(), "Customer",
                                SyncContext{travel, evolution.mkb})
          .value();
  EXPECT_TRUE(result.rewritings.empty());
}

TEST_F(MkbTest, GetByIdNotFound) {
  EXPECT_FALSE(mkb_.GetJoinConstraint("nope").ok());
  EXPECT_FALSE(mkb_.GetFunctionOf("nope").ok());
}

TEST(SetRelationTest, FlipIsInvolutionAroundEqual) {
  EXPECT_EQ(FlipSetRelation(SetRelation::kSubset), SetRelation::kSuperset);
  EXPECT_EQ(FlipSetRelation(SetRelation::kProperSubset),
            SetRelation::kProperSuperset);
  EXPECT_EQ(FlipSetRelation(SetRelation::kEqual), SetRelation::kEqual);
  for (const SetRelation r :
       {SetRelation::kProperSubset, SetRelation::kSubset, SetRelation::kEqual,
        SetRelation::kSuperset, SetRelation::kProperSuperset}) {
    EXPECT_EQ(FlipSetRelation(FlipSetRelation(r)), r);
  }
}

TEST(TravelAgencyMkbTest, MatchesFig2Inventory) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  EXPECT_EQ(mkb.catalog().NumRelations(), 7u);
  EXPECT_EQ(mkb.join_constraints().size(), 6u);
  EXPECT_EQ(mkb.function_of_constraints().size(), 7u);
  EXPECT_TRUE(mkb.catalog().HasAttribute({"Accident-Ins", "Birthday"}));
  EXPECT_EQ(mkb.catalog().TypeOf({"Customer", "Age"}).value(),
            DataType::kInt);
  // JC2 carries the extra local clause Customer.Age > 1.
  EXPECT_EQ(mkb.GetJoinConstraint("JC2").value()->clauses.size(), 2u);
  // F3 is a genuine (non-identity) function.
  EXPECT_FALSE(mkb.GetFunctionOf("F3").value()->IsIdentity());
  // Covers of Customer.Name per Ex. 9 Step 1: F1, F2, F4.
  EXPECT_EQ(mkb.CoversOf({"Customer", "Name"}).size(), 3u);
}

TEST(TravelAgencyMkbTest, ExtensionsApply) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddPersonExtension(&mkb).ok());
  EXPECT_TRUE(mkb.catalog().HasRelation("Person"));
  EXPECT_EQ(mkb.CoversOf({"Customer", "Addr"}).size(), 1u);
  ASSERT_TRUE(AddAccidentInsPc(&mkb).ok());
  ASSERT_TRUE(AddFlightResPc(&mkb).ok());
  EXPECT_EQ(mkb.PCConstraintsBetween("Customer", "Accident-Ins").size(), 1u);
  EXPECT_EQ(mkb.pc_constraints().size(), 3u);
}

TEST(TravelAgencyMkbTest, ToStringMentionsEverySection) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const std::string dump = mkb.ToString();
  EXPECT_NE(dump.find("JC6"), std::string::npos);
  EXPECT_NE(dump.find("F7"), std::string::npos);
  EXPECT_NE(dump.find("Customer"), std::string::npos);
}

}  // namespace
}  // namespace eve
