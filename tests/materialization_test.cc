#include <gtest/gtest.h>

#include "esql/evaluator.h"
#include "eve/eve_system.h"
#include "eve/materialization.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

// --- Table column operations ---------------------------------------------------

TEST(TableColumnsTest, DropColumnRemovesSchemaAndValues) {
  Table table(Schema({{"a", DataType::kInt}, {"b", DataType::kString}}));
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(table.DropColumn("a").ok());
  EXPECT_EQ(table.schema().size(), 1u);
  EXPECT_EQ(table.Row(0), (Tuple{Value::String("x")}));
  EXPECT_FALSE(table.DropColumn("a").ok());
}

TEST(TableColumnsTest, RenameColumn) {
  Table table(Schema({{"a", DataType::kInt}, {"b", DataType::kString}}));
  ASSERT_TRUE(table.RenameColumn("a", "a2").ok());
  EXPECT_TRUE(table.schema().Contains("a2"));
  EXPECT_EQ(table.RenameColumn("a2", "b").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(table.RenameColumn("gone", "x").code(), StatusCode::kNotFound);
  EXPECT_TRUE(table.RenameColumn("b", "b").ok());
}

TEST(TableColumnsTest, AddColumnFillsNulls) {
  Table table(Schema({{"a", DataType::kInt}}));
  ASSERT_TRUE(table.Insert({Value::Int(1)}).ok());
  ASSERT_TRUE(table.AddColumn({"b", DataType::kString}).ok());
  EXPECT_EQ(table.schema().size(), 2u);
  EXPECT_TRUE(table.Row(0)[1].is_null());
  EXPECT_EQ(table.AddColumn({"b", DataType::kString}).code(),
            StatusCode::kAlreadyExists);
}

// --- ApplyChangeToDatabase ------------------------------------------------------

class PhysicalChangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb_, &db_, 20, 3).ok());
  }
  Mkb mkb_;
  Database db_;
};

TEST_F(PhysicalChangeTest, DeleteRelationDropsTable) {
  ASSERT_TRUE(ApplyChangeToDatabase(
                  CapabilityChange::DeleteRelation("Customer"), &db_)
                  .ok());
  EXPECT_FALSE(db_.HasTable("Customer"));
}

TEST_F(PhysicalChangeTest, DeleteAttributeDropsColumn) {
  ASSERT_TRUE(ApplyChangeToDatabase(
                  CapabilityChange::DeleteAttribute("Customer", "Addr"),
                  &db_)
                  .ok());
  const Table* customer = db_.GetTable("Customer").value();
  EXPECT_FALSE(customer->schema().Contains("Addr"));
  EXPECT_EQ(customer->Row(0).size(), 3u);
}

TEST_F(PhysicalChangeTest, Renames) {
  ASSERT_TRUE(ApplyChangeToDatabase(
                  CapabilityChange::RenameRelation("Customer", "Client"),
                  &db_)
                  .ok());
  EXPECT_TRUE(db_.HasTable("Client"));
  ASSERT_TRUE(ApplyChangeToDatabase(
                  CapabilityChange::RenameAttribute("Client", "Name",
                                                    "FullName"),
                  &db_)
                  .ok());
  EXPECT_TRUE(
      db_.GetTable("Client").value()->schema().Contains("FullName"));
}

TEST_F(PhysicalChangeTest, AddRelationCreatesEmptyTable) {
  RelationDef def;
  def.source = "IS9";
  def.name = "Cruise";
  def.schema = Schema({{"CruiseID", DataType::kInt}});
  ASSERT_TRUE(
      ApplyChangeToDatabase(CapabilityChange::AddRelation(def), &db_).ok());
  EXPECT_TRUE(db_.HasTable("Cruise"));
  EXPECT_EQ(db_.GetTable("Cruise").value()->NumRows(), 0u);
}

TEST_F(PhysicalChangeTest, AddAttributeAppendsNullColumn) {
  ASSERT_TRUE(ApplyChangeToDatabase(
                  CapabilityChange::AddAttribute(
                      "Customer", {"Email", DataType::kString}),
                  &db_)
                  .ok());
  const Table* customer = db_.GetTable("Customer").value();
  EXPECT_TRUE(customer->schema().Contains("Email"));
  EXPECT_TRUE(customer->Row(0).back().is_null());
}

TEST_F(PhysicalChangeTest, ErrorsPropagate) {
  EXPECT_FALSE(ApplyChangeToDatabase(
                   CapabilityChange::DeleteRelation("Nope"), &db_)
                   .ok());
  EXPECT_FALSE(ApplyChangeToDatabase(
                   CapabilityChange::DeleteAttribute("Customer", "Nope"),
                   &db_)
                   .ok());
}

// --- End-to-end warehouse maintenance -------------------------------------------

TEST(WarehouseTest, ViewStaysServableAcrossSourceDeparture) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddAccidentInsPc(&mkb).ok());
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 50, 11).ok());

  EveSystem system(mkb);
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());

  const FunctionRegistry registry = FunctionRegistry::Default();
  MaterializedViewStore store(&registry);
  ASSERT_TRUE(store
                  .Refresh(system.GetView("CustomerPassengersAsia")
                               .value()
                               ->definition,
                           db, system.mkb().catalog())
                  .ok());
  const Table before = *store.Extent("CustomerPassengersAsia").value();
  EXPECT_GT(before.NumRows(), 0u);

  // The change hits the MKB, the view pool AND the physical data.
  const CapabilityChange change =
      CapabilityChange::DeleteRelation("Customer");
  const ChangeReport report = system.ApplyChange(change).value();
  ASSERT_EQ(report.CountOutcome(ViewOutcomeKind::kRewritten), 1u);
  ASSERT_TRUE(ApplyChangeToDatabase(change, &db).ok());
  EXPECT_FALSE(db.HasTable("Customer"));

  // Refresh the rewritten view from the surviving sources only.
  ASSERT_TRUE(store
                  .Refresh(system.GetView("CustomerPassengersAsia")
                               .value()
                               ->definition,
                           db, system.mkb().catalog())
                  .ok());
  const Table after = *store.Extent("CustomerPassengersAsia").value();
  // PC-AI: the rewriting is complete — nothing lost on the common
  // interface (here: all four columns survive via the covers).
  EXPECT_TRUE(before.IsSubsetOf(after))
      << "before:\n"
      << before.ToString() << "after:\n"
      << after.ToString();
}

TEST(WarehouseTest, StoreBookkeeping) {
  MaterializedViewStore store;
  EXPECT_FALSE(store.Has("v"));
  EXPECT_FALSE(store.Extent("v").ok());
  store.Drop("v");  // missing is fine
  EXPECT_EQ(store.NumViews(), 0u);
}

// The post-commit materialization hook: with a store and database
// attached, ApplyChange evolves the physical tables and brings every
// affected view's stored extent to its rewritten definition — no manual
// ApplyChangeToDatabase / Refresh calls.
TEST(WarehouseTest, AttachedStoreMaintainedAcrossChange) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddAccidentInsPc(&mkb).ok());
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 50, 11).ok());

  EveSystem system(mkb);
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  const FunctionRegistry registry = FunctionRegistry::Default();
  MaterializedViewStore store(&registry);
  // The hook runs the oracle; `fresh` below runs the default vectorized
  // path, so the final comparison crosses strategies.
  system.SetExecutorStrategy(JoinStrategy::kNestedLoop);
  system.AttachMaterialization(&store, &db);
  EXPECT_EQ(store.strategy(), JoinStrategy::kNestedLoop);

  ASSERT_TRUE(store
                  .Refresh(system.GetView("CustomerPassengersAsia")
                               .value()
                               ->definition,
                           db, system.mkb().catalog())
                  .ok());
  const Table before = *store.Extent("CustomerPassengersAsia").value();

  const Result<ChangeReport> report =
      system.ApplyChange(CapabilityChange::DeleteRelation("Customer"));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report.value().CountOutcome(ViewOutcomeKind::kRewritten), 1u);

  // The data plane followed the control plane on its own.
  EXPECT_FALSE(db.HasTable("Customer"));
  const Table& after = *store.Extent("CustomerPassengersAsia").value();
  EXPECT_TRUE(before.IsSubsetOf(after));

  // The maintained extent agrees with a from-scratch refresh of the
  // rewritten definition over the evolved database.
  MaterializedViewStore fresh(&registry);
  ASSERT_TRUE(fresh
                  .Refresh(system.GetView("CustomerPassengersAsia")
                               .value()
                               ->definition,
                           db, system.mkb().catalog())
                  .ok());
  EXPECT_TRUE(
      after.SetEquals(*fresh.Extent("CustomerPassengersAsia").value()));
  // Initial manual Refresh plus the hook's maintenance pass.
  EXPECT_GE(store.StatsFor("CustomerPassengersAsia").total(), 2u);
}

// DELETE ATTRIBUTE of a column only a dispensable filter reads: CVS drops
// the filter (verdict Superset), and the hook refreshes the view fully —
// the dropped condition names a column the evolved table no longer has,
// so no delta over the old extent could evaluate it.
TEST(WarehouseTest, DeleteAttributeUnderDispensableFilterRefreshesFully) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 40, 5).ok());

  EveSystem system(mkb);
  ASSERT_TRUE(system
                  .RegisterViewText(R"sql(
    CREATE VIEW EarlyPhones (VE = ~) AS
    SELECT C.Name (false, true), C.Age (true, true)
    FROM Customer C (true, true)
    WHERE (C.Phone < 'phone_2') (true, true)
  )sql")
                  .ok());
  const FunctionRegistry registry = FunctionRegistry::Default();
  MaterializedViewStore store(&registry);
  system.AttachMaterialization(&store, &db);
  ASSERT_TRUE(
      store
          .Refresh(system.GetView("EarlyPhones").value()->definition, db,
                   system.mkb().catalog())
          .ok());
  const Table before = *store.Extent("EarlyPhones").value();

  const Result<ChangeReport> report = system.ApplyChange(
      CapabilityChange::DeleteAttribute("Customer", "Phone"));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report.value().CountOutcome(ViewOutcomeKind::kRewritten), 1u);
  EXPECT_EQ(store.StatsFor("EarlyPhones").last_path, RefreshPath::kFull);

  const Table& after = *store.Extent("EarlyPhones").value();
  const Table oracle =
      EvaluateView(system.GetView("EarlyPhones").value()->definition, db,
                   system.mkb().catalog(), &registry,
                   JoinStrategy::kNestedLoop)
          .value();
  EXPECT_TRUE(after.SetEquals(oracle));
  EXPECT_TRUE(before.IsSubsetOf(after));
  EXPECT_GT(after.NumRows(), before.NumRows());
}

// The Extent() pointer-stability contract: the returned Table* survives
// Refresh of OTHER views unchanged, and is invalidated only by a
// Refresh/Drop of the SAME view.
TEST(WarehouseTest, ExtentPointerSurvivesRefreshOfOtherViews) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 30, 7).ok());

  EveSystem system(mkb);
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  const ViewDefinition base =
      system.GetView("CustomerPassengersAsia").value()->definition;
  ViewDefinition other = base;
  other.set_name("OtherView");

  const FunctionRegistry registry = FunctionRegistry::Default();
  MaterializedViewStore store(&registry);
  const Catalog& catalog = system.mkb().catalog();
  ASSERT_TRUE(store.Refresh(base, db, catalog).ok());
  const Table* pinned = store.Extent("CustomerPassengersAsia").value();
  const std::string before = pinned->ToString(1000);

  // Churn OTHER entries: new views materialized and dropped around it.
  ASSERT_TRUE(store.Refresh(other, db, catalog).ok());
  ASSERT_TRUE(store.Refresh(other, db, catalog).ok());
  store.Drop("OtherView");
  ASSERT_TRUE(store.Refresh(other, db, catalog).ok());

  // Same pointer, same bytes: std::map nodes never move, and refreshes of
  // other names never touch this view's Table.
  EXPECT_EQ(store.Extent("CustomerPassengersAsia").value(), pinned);
  EXPECT_EQ(pinned->ToString(1000), before);

  // A refresh of the SAME view replaces the mapped Table in place: the
  // address may stay (map node reuse) but the contract says the old
  // pointer's contents are no longer guaranteed — re-fetch after any
  // same-view refresh.
  ASSERT_TRUE(store.Refresh(base, db, catalog).ok());
  const Table* refetched = store.Extent("CustomerPassengersAsia").value();
  EXPECT_EQ(refetched->ToString(1000), before);  // same data, re-fetched
  store.Drop("CustomerPassengersAsia");
  EXPECT_FALSE(store.Extent("CustomerPassengersAsia").ok());
}

}  // namespace
}  // namespace eve
