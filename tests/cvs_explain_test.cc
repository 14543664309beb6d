#include <gtest/gtest.h>

#include <algorithm>

#include "cvs/explain.h"
#include "esql/binder.h"
#include "mkb/evolution.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    ASSERT_TRUE(AddAccidentInsPc(&mkb_).ok());
    view_ = ParseAndBindView(CustomerPassengersAsiaSql(), mkb_.catalog())
                .MoveValue();
    mkb_prime_ =
        EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer"))
            .MoveValue()
            .mkb;
    result_ =
        SynchronizeDeleteRelation(view_, "Customer",
                                  SyncContext{mkb_, mkb_prime_})
            .MoveValue();
  }

  const SynchronizedView& Rewriting(const std::string& relation) {
    for (const SynchronizedView& synced : result_.rewritings) {
      if (synced.view.HasFromRelation(relation)) return synced;
    }
    ADD_FAILURE() << "no rewriting with " << relation;
    return result_.rewritings.front();
  }

  Mkb mkb_;
  Mkb mkb_prime_;
  ViewDefinition view_;
  CvsResult result_;
};

TEST_F(ExplainTest, Equation13ExplanationIsComplete) {
  const RewritingExplanation explanation =
      ExplainRewriting(view_, Rewriting("Accident-Ins"));
  // Both attributes replaced, with constraint provenance.
  ASSERT_EQ(explanation.replaced_attributes.size(), 2u);
  EXPECT_NE(explanation.replaced_attributes[0].find("via F2"),
            std::string::npos);
  EXPECT_NE(explanation.replaced_attributes[1].find("via F3"),
            std::string::npos);
  // Nothing dropped.
  EXPECT_TRUE(explanation.dropped_attributes.empty());
  EXPECT_TRUE(explanation.dropped_conditions.empty());
  // Accident-Ins joined in through JC6's clause — which is exactly the
  // substituted image of the original (C.Name = F.PName) under
  // Name -> Holder, so it is NOT reported as an addition.
  EXPECT_EQ(explanation.added_relations,
            (std::vector<std::string>{"Accident-Ins"}));
  EXPECT_TRUE(explanation.added_conditions.empty());
  EXPECT_NE(explanation.extent_note.find("superset"), std::string::npos);
  EXPECT_NE(explanation.extent_note.find("PC-justified"),
            std::string::npos);
}

TEST_F(ExplainTest, FlightResExplanationShowsDroppedAge) {
  // The FlightRes-cover rewriting drops Age and adds no relation.
  const SynchronizedView* flightres = nullptr;
  for (const SynchronizedView& synced : result_.rewritings) {
    if (!synced.view.HasFromRelation("Accident-Ins")) flightres = &synced;
  }
  ASSERT_NE(flightres, nullptr);
  const RewritingExplanation explanation =
      ExplainRewriting(view_, *flightres);
  EXPECT_EQ(explanation.dropped_attributes,
            (std::vector<std::string>{"Age"}));
  EXPECT_TRUE(explanation.added_relations.empty());
  EXPECT_TRUE(explanation.added_conditions.empty());
  EXPECT_NE(explanation.extent_note.find("unknown"), std::string::npos);
}

TEST_F(ExplainTest, ToStringRendersSections) {
  const std::string text =
      ExplainRewriting(view_, Rewriting("Accident-Ins")).ToString();
  EXPECT_NE(text.find("replaced attributes:"), std::string::npos);
  EXPECT_NE(text.find("added relations:"), std::string::npos);
  EXPECT_NE(text.find("extent:"), std::string::npos);
  EXPECT_EQ(text.find("dropped attributes:"), std::string::npos);
}

TEST_F(ExplainTest, DropBasedRewritingNoted) {
  const ViewDefinition droppable = ParseAndBindView(
      "CREATE VIEW V AS SELECT F.PName (false, true), C.Age (true, true) "
      "FROM Customer C (true, true), FlightRes F "
      "WHERE (C.Name = F.PName) (true, true)",
      mkb_.catalog())
                                       .value();
  const CvsResult result =
      SynchronizeDeleteRelation(droppable, "Customer",
                                SyncContext{mkb_, mkb_prime_})
          .value();
  const SynchronizedView* drop = nullptr;
  for (const SynchronizedView& synced : result.rewritings) {
    if (synced.is_drop) drop = &synced;
  }
  ASSERT_NE(drop, nullptr);
  const RewritingExplanation explanation =
      ExplainRewriting(droppable, *drop);
  EXPECT_EQ(explanation.dropped_attributes,
            (std::vector<std::string>{"Age"}));
  EXPECT_NE(explanation.extent_note.find("drop-based"), std::string::npos);
}

}  // namespace
}  // namespace eve
