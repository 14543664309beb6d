// Full-system integration scenarios over the travel-agency federation:
// long change sequences, survival matrices, and cross-checks between the
// EveSystem facade and direct CVS runs.

#include <gtest/gtest.h>

#include "esql/binder.h"
#include "esql/evaluator.h"
#include "eve/eve_system.h"
#include "mkb/evolution.h"
#include "workload/generator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

Mkb FullMkb() {
  Mkb mkb = MakeTravelAgencyMkb().value();
  EXPECT_TRUE(AddPersonExtension(&mkb).ok());
  EXPECT_TRUE(AddAccidentInsPc(&mkb).ok());
  EXPECT_TRUE(AddFlightResPc(&mkb).ok());
  return mkb;
}

TEST(IntegrationTest, LongChangeSequencePreservesCurableViews) {
  EveSystem system(FullMkb());
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(system.RegisterViewText(AsiaCustomerSql()).ok());
  ASSERT_TRUE(system.RegisterViewText(
                      "CREATE VIEW HotelCars AS SELECT H.City, R.Company "
                      "FROM Hotels H, RentACar R "
                      "WHERE H.Address = R.Location")
                  .ok());
  EXPECT_EQ(system.NumActiveViews(), 3u);

  // 1. An unrelated IS leaves: Tour disappears. Nothing is affected.
  auto report =
      system.ApplyChange(CapabilityChange::DeleteRelation("Tour")).value();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kRewritten), 0u);
  EXPECT_EQ(system.NumActiveViews(), 3u);

  // 2. Customer.Addr is deleted: AsiaCustomer rewrites via Person (Ex. 4).
  report = system
               .ApplyChange(
                   CapabilityChange::DeleteAttribute("Customer", "Addr"))
               .value();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kRewritten), 1u);
  EXPECT_TRUE(system.GetView("AsiaCustomer")
                  .value()
                  ->definition.HasFromRelation("Person"));
  EXPECT_EQ(system.NumActiveViews(), 3u);

  // 3. Customer disappears. CustomerPassengersAsia rewrites through its
  // covers (Ex. 9-10). AsiaCustomer, however, was already rerouted through
  // Person, and Person's only join constraint went through Customer — with
  // Customer gone Person is unreachable in H'(MKB'), so the view is
  // correctly disabled (Def. 3's replacement set is empty).
  report = system.ApplyChange(CapabilityChange::DeleteRelation("Customer"))
               .value();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kRewritten), 1u)
      << report.ToString();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kDisabled), 1u);
  EXPECT_EQ(system.NumActiveViews(), 2u);
  EXPECT_FALSE(system.GetView("CustomerPassengersAsia")
                   .value()
                   ->definition.ReferencesRelation("Customer"));

  // 4. Hotels renamed: HotelCars follows.
  report =
      system.ApplyChange(CapabilityChange::RenameRelation("Hotels", "Inns"))
          .value();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kRewritten), 1u);
  EXPECT_TRUE(
      system.GetView("HotelCars").value()->definition.HasFromRelation(
          "Inns"));

  // 5. RentACar disappears: no cover for Company — HotelCars dies.
  report =
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar"))
          .value();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kDisabled), 1u);
  EXPECT_EQ(system.NumActiveViews(), 1u);

  EXPECT_EQ(system.change_log().size(), 5u);
}

TEST(IntegrationTest, RewrittenViewsStayEvaluableAcrossChanges) {
  Mkb mkb = FullMkb();
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 60, 21).ok());
  EveSystem system(mkb);
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());

  const Table before =
      EvaluateView(
          system.GetView("CustomerPassengersAsia").value()->definition, db,
          mkb.catalog())
          .value();

  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("Customer")).ok());
  const ViewDefinition& rewritten =
      system.GetView("CustomerPassengersAsia").value()->definition;
  // Evaluate against the pre-change catalog (physical tuples unchanged).
  const Table after = EvaluateView(rewritten, db, mkb.catalog()).value();

  // PC-AI guarantees the rewriting is complete: nothing is lost.
  Table before_projected = before;
  Table after_projected = after;
  EXPECT_TRUE(before_projected.IsSubsetOf(after_projected))
      << "before:\n"
      << before.ToString() << "after:\n"
      << after.ToString();
}

TEST(IntegrationTest, SurvivalMatrixUnderEveryRelationDeletion) {
  // For each relation, run the paper view against delete-relation and
  // record whether CVS preserves it; the expected pattern documents the
  // algorithm's behavior on the Fig. 2 MKB.
  const Mkb mkb = FullMkb();
  const ViewDefinition view =
      ParseAndBindView(CustomerPassengersAsiaSql(), mkb.catalog()).value();

  const std::vector<std::pair<std::string, bool>> expectations = {
      {"Customer", true},      // covers via F1/F2 (paper Ex. 9-10)
      {"FlightRes", false},    // PName/Dest/Date have no covers
      {"Participant", false},  // StartDate/Loc sit in indispensable
                               // conditions and have no covers
  };
  for (const auto& [relation, expect_preserved] : expectations) {
    const auto evolution =
        EvolveMkb(mkb, CapabilityChange::DeleteRelation(relation)).value();
    const CvsResult result =
        SynchronizeDeleteRelation(view, relation,
                                  SyncContext{mkb, evolution.mkb})
            .value();
    EXPECT_EQ(result.ViewPreserved(), expect_preserved)
        << relation << ": " << result.diagnostics.size()
        << " diagnostics";
  }
}

TEST(IntegrationTest, SyntheticFederationChurn) {
  // A 3x3 grid federation with covers; delete relations one by one and
  // watch views survive while their covers last.
  const Mkb initial = MakeGridMkb(3, 3).value();
  EveSystem system(initial);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 5; ++i) {
    Result<ViewDefinition> view = MakeRandomConnectedView(initial, &rng, 3);
    ASSERT_TRUE(view.ok());
    ViewDefinition named = view.MoveValue();
    named.set_name("view_" + std::to_string(i));
    ASSERT_TRUE(system.RegisterView(named).ok());
  }
  ASSERT_EQ(system.NumViews(), 5u);

  size_t rewritten_total = 0;
  for (const std::string victim : {"R4", "R1"}) {
    const auto report =
        system.ApplyChange(CapabilityChange::DeleteRelation(victim));
    ASSERT_TRUE(report.ok()) << report.status();
    rewritten_total +=
        report.value().CountOutcome(ViewOutcomeKind::kRewritten);
    // Every still-active view must bind against the evolved MKB.
    for (const std::string& name : system.ViewNames()) {
      const RegisteredView* view = system.GetView(name).value();
      if (view->state != ViewState::kActive) continue;
      EXPECT_TRUE(
          BindView(view->definition.ToParsedView(), system.mkb().catalog())
              .ok())
          << name;
    }
  }
  SUCCEED() << rewritten_total << " rewrites across the churn";
}

TEST(IntegrationTest, QuickstartScenarioEndToEnd) {
  // The README quickstart, as a test: build, change, synchronize, compare.
  Mkb mkb = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddAccidentInsPc(&mkb).ok());
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 40, 7).ok());

  const ViewDefinition view =
      ParseAndBindView(CustomerPassengersAsiaSql(), mkb.catalog()).value();
  const auto evolution =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("Customer")).value();
  const CvsResult result =
      SynchronizeDeleteRelation(view, "Customer",
                                SyncContext{mkb, evolution.mkb})
          .value();
  ASSERT_EQ(result.rewritings.size(), 2u);

  const FunctionRegistry registry = FunctionRegistry::Default();
  const Table before =
      EvaluateView(view, db, mkb.catalog(), &registry).value();
  const Table after = EvaluateView(result.rewritings[0].view, db,
                                   mkb.catalog(), &registry)
                          .value();
  // The Accident-Ins rewriting reproduces the original extent exactly on
  // this constraint-consistent state (Birthday determines Age via F3).
  EXPECT_TRUE(before.SetEquals(after)) << "before:\n"
                                       << before.ToString() << "after:\n"
                                       << after.ToString();
}

}  // namespace
}  // namespace eve
