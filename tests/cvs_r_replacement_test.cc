#include <gtest/gtest.h>

#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "esql/binder.h"
#include "hypergraph/join_graph.h"
#include "mkb/evolution.h"
#include "support/r_replacement_oracle.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

class RReplacementTest : public ::testing::Test {
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
    graph_prime_ = JoinGraph::Build(mkb_prime_);
  }

  Mkb mkb_;
  Mkb mkb_prime_;
  JoinGraph graph_prime_;
  ViewDefinition view_;
  RMapping mapping_;
};

TEST_F(RReplacementTest, ClassifiesNeedsPerEvolutionParams) {
  const AttributeNeeds needs =
      ClassifyAttributeNeeds(view_, mapping_).value();
  // Customer.Name: SELECT item (false, true) -> mandatory.
  ASSERT_EQ(needs.mandatory.size(), 1u);
  EXPECT_EQ(needs.mandatory[0], (AttributeRef{"Customer", "Name"}));
  // Customer.Age: SELECT item (true, true) -> optional.
  ASSERT_EQ(needs.optional.size(), 1u);
  EXPECT_EQ(needs.optional[0], (AttributeRef{"Customer", "Age"}));
}

TEST_F(RReplacementTest, NonReplaceableIndispensableDisablesView) {
  // Same view but Name marked non-replaceable.
  ViewDefinition rigid = view_;
  (*rigid.mutable_select())[0].params = EvolutionParams{false, false};
  const auto result = ClassifyAttributeNeeds(rigid, mapping_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kViewDisabled);
}

// Paper Ex. 9: two usable covers (Accident-Ins via F2 with join chain JC6,
// FlightRes via F1); the Participant cover is rejected (disconnected).
TEST_F(RReplacementTest, PaperExample9Candidates) {
  const auto candidates =
      ComputeRReplacements(view_, mapping_, mkb_, graph_prime_, {}).value();
  ASSERT_EQ(candidates.size(), 2u);
  // Smallest first: the FlightRes-only candidate.
  EXPECT_EQ(candidates[0].tree.relations,
            (std::vector<std::string>{"FlightRes"}));
  EXPECT_EQ(candidates[0].replacements[0].constraint_id, "F1");
  // The Accident-Ins candidate joins through JC6.
  EXPECT_EQ(candidates[1].tree.relations,
            (std::vector<std::string>{"Accident-Ins", "FlightRes"}));
  ASSERT_EQ(candidates[1].tree.edges.size(), 1u);
  EXPECT_EQ(candidates[1].tree.edges[0].id, "JC6");
}

TEST_F(RReplacementTest, OptionalAgeCoveredOpportunistically) {
  const auto candidates =
      ComputeRReplacements(view_, mapping_, mkb_, graph_prime_, {}).value();
  ASSERT_EQ(candidates.size(), 2u);
  // FlightRes-only candidate: Age has no cover there -> unreplaced.
  EXPECT_EQ(candidates[0].replacements.size(), 1u);
  ASSERT_EQ(candidates[0].unreplaced.size(), 1u);
  EXPECT_EQ(candidates[0].unreplaced[0], (AttributeRef{"Customer", "Age"}));
  // Accident-Ins candidate: Age covered via F3 (paper Ex. 10 / Eq. 13).
  ASSERT_EQ(candidates[1].replacements.size(), 2u);
  EXPECT_EQ(candidates[1].replacements[1].constraint_id, "F3");
  EXPECT_TRUE(candidates[1].unreplaced.empty());
}

TEST_F(RReplacementTest, NoCoverMeansEmptyReplacementSet) {
  // A view selecting Customer.Phone (no F constraint covers Phone).
  const ViewDefinition phone_view = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Phone (false, true) FROM Customer C, "
      "FlightRes F WHERE C.Name = F.PName",
      mkb_.catalog())
                                        .value();
  const RMapping mapping =
      ComputeRMapping(phone_view, "Customer", mkb_).value();
  const auto candidates =
      ComputeRReplacements(phone_view, mapping, mkb_, graph_prime_, {})
          .value();
  EXPECT_TRUE(candidates.empty());
}

TEST_F(RReplacementTest, DisconnectedCoverRejected) {
  // A view over Customer and Participant joined explicitly: kept set is
  // {Participant}; the FlightRes/Accident-Ins covers are disconnected from
  // Participant in H'(MKB'), and the Participant cover (F4) is itself the
  // kept relation — usable with no extra joins.
  const ViewDefinition pview = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Name (false, true) FROM Customer C, "
      "Participant P WHERE C.Name = P.Participant",
      mkb_.catalog())
                                   .value();
  const RMapping mapping = ComputeRMapping(pview, "Customer", mkb_).value();
  EXPECT_EQ(mapping.relations,
            (std::vector<std::string>{"Customer", "Participant"}));
  const auto candidates =
      ComputeRReplacements(pview, mapping, mkb_, graph_prime_, {}).value();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].tree.relations,
            (std::vector<std::string>{"Participant"}));
  EXPECT_EQ(candidates[0].replacements[0].constraint_id, "F4");
}

TEST_F(RReplacementTest, MaxResultsBoundsEnumeration) {
  RReplacementOptions options;
  options.max_results = 1;
  const auto candidates =
      ComputeRReplacements(view_, mapping_, mkb_, graph_prime_, options)
          .value();
  EXPECT_EQ(candidates.size(), 1u);
}

TEST_F(RReplacementTest, CandidateToStringSmoke) {
  const auto candidates =
      ComputeRReplacements(view_, mapping_, mkb_, graph_prime_, {}).value();
  ASSERT_FALSE(candidates.empty());
  EXPECT_NE(candidates[0].ToString().find("candidate:"), std::string::npos);
}

TEST_F(RReplacementTest, DispensableNonReplaceableComponentsIgnored) {
  // Phone marked (true, false): dispensable, non-replaceable. It needs no
  // cover and must not appear in the needs.
  const ViewDefinition v = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Name (false, true), C.Phone (true, false) "
      "FROM Customer C, FlightRes F WHERE C.Name = F.PName",
      mkb_.catalog())
                               .value();
  const RMapping mapping = ComputeRMapping(v, "Customer", mkb_).value();
  const AttributeNeeds needs = ClassifyAttributeNeeds(v, mapping).value();
  EXPECT_EQ(needs.mandatory.size(), 1u);
  EXPECT_TRUE(needs.optional.empty());
}

TEST_F(RReplacementTest, OptionalCoverChasingFindsPreservingCandidates) {
  // A view selecting only dispensable Customer attributes: without
  // chasing, the single candidate drops them; with chasing, candidates
  // that join the covers in (and preserve the attributes) appear too.
  const ViewDefinition v = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Age (true, true), F.Airline (false, true) "
      "FROM Customer C, FlightRes F WHERE C.Name = F.PName",
      mkb_.catalog())
                               .value();
  const RMapping mapping = ComputeRMapping(v, "Customer", mkb_).value();

  const auto plain =
      ComputeRReplacements(v, mapping, mkb_, graph_prime_, {}).value();
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0].unreplaced.size(), 1u);  // Age dropped

  RReplacementOptions chase;
  chase.chase_optional_covers = true;
  const auto chased =
      ComputeRReplacements(v, mapping, mkb_, graph_prime_, chase).value();
  ASSERT_EQ(chased.size(), 2u);
  bool preserving_found = false;
  for (const ReplacementCandidate& candidate : chased) {
    if (candidate.unreplaced.empty() && !candidate.replacements.empty()) {
      preserving_found = true;
      // Age covered via F3 from Accident-Ins, joined through JC6.
      EXPECT_EQ(candidate.replacements[0].constraint_id, "F3");
      EXPECT_EQ(candidate.tree.relations,
                (std::vector<std::string>{"Accident-Ins", "FlightRes"}));
    }
  }
  EXPECT_TRUE(preserving_found);
}

TEST_F(RReplacementTest, ConditionAttributesNeedCoversToo) {
  // An indispensable filter on Customer.Age forces Age to be mandatory.
  const ViewDefinition v = ParseAndBindView(
      "CREATE VIEW V AS SELECT C.Name (false, true) FROM Customer C, "
      "FlightRes F WHERE C.Name = F.PName AND (C.Age > 30) (false, true)",
      mkb_.catalog())
                               .value();
  const RMapping mapping = ComputeRMapping(v, "Customer", mkb_).value();
  const AttributeNeeds needs = ClassifyAttributeNeeds(v, mapping).value();
  ASSERT_EQ(needs.mandatory.size(), 2u);
  // Age is only covered by Accident-Ins (F3), so every candidate must
  // join Accident-Ins in; Name may come from F1 or F2 (the F4 combo is
  // disconnected), giving two candidates over the same join skeleton.
  const auto candidates =
      ComputeRReplacements(v, mapping, mkb_, graph_prime_, {}).value();
  ASSERT_EQ(candidates.size(), 2u);
  for (const ReplacementCandidate& candidate : candidates) {
    EXPECT_EQ(candidate.tree.relations,
              (std::vector<std::string>{"Accident-Ins", "FlightRes"}));
  }
}

}  // namespace
}  // namespace eve
