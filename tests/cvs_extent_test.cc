#include <gtest/gtest.h>

#include "cvs/cvs.h"
#include "cvs/extent.h"
#include "esql/binder.h"
#include "mkb/builder.h"
#include "mkb/evolution.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

// --- Lattice ------------------------------------------------------------------

TEST(ExtentLatticeTest, EqualIsNeutral) {
  for (const ExtentRelation r :
       {ExtentRelation::kEqual, ExtentRelation::kSuperset,
        ExtentRelation::kSubset, ExtentRelation::kUnknown}) {
    EXPECT_EQ(CombineExtent(ExtentRelation::kEqual, r), r);
    EXPECT_EQ(CombineExtent(r, ExtentRelation::kEqual), r);
  }
}

TEST(ExtentLatticeTest, SameDirectionIsStable) {
  EXPECT_EQ(CombineExtent(ExtentRelation::kSuperset,
                          ExtentRelation::kSuperset),
            ExtentRelation::kSuperset);
  EXPECT_EQ(CombineExtent(ExtentRelation::kSubset, ExtentRelation::kSubset),
            ExtentRelation::kSubset);
}

TEST(ExtentLatticeTest, MixedDirectionsAreUnknown) {
  EXPECT_EQ(
      CombineExtent(ExtentRelation::kSuperset, ExtentRelation::kSubset),
      ExtentRelation::kUnknown);
  EXPECT_EQ(
      CombineExtent(ExtentRelation::kUnknown, ExtentRelation::kSuperset),
      ExtentRelation::kUnknown);
}

TEST(ExtentLatticeTest, SatisfiesViewExtentMatrix) {
  // VE = ≈ accepts everything.
  for (const ExtentRelation r :
       {ExtentRelation::kEqual, ExtentRelation::kSuperset,
        ExtentRelation::kSubset, ExtentRelation::kUnknown}) {
    EXPECT_TRUE(SatisfiesViewExtent(r, ViewExtent::kAny));
  }
  // VE = ≡ only accepts equal.
  EXPECT_TRUE(SatisfiesViewExtent(ExtentRelation::kEqual, ViewExtent::kEqual));
  EXPECT_FALSE(
      SatisfiesViewExtent(ExtentRelation::kSuperset, ViewExtent::kEqual));
  // VE = ⊇ accepts equal and superset.
  EXPECT_TRUE(
      SatisfiesViewExtent(ExtentRelation::kEqual, ViewExtent::kSuperset));
  EXPECT_TRUE(
      SatisfiesViewExtent(ExtentRelation::kSuperset, ViewExtent::kSuperset));
  EXPECT_FALSE(
      SatisfiesViewExtent(ExtentRelation::kSubset, ViewExtent::kSuperset));
  EXPECT_FALSE(
      SatisfiesViewExtent(ExtentRelation::kUnknown, ViewExtent::kSuperset));
  // VE = ⊆ accepts equal and subset.
  EXPECT_TRUE(
      SatisfiesViewExtent(ExtentRelation::kSubset, ViewExtent::kSubset));
  EXPECT_FALSE(
      SatisfiesViewExtent(ExtentRelation::kSuperset, ViewExtent::kSubset));
}

TEST(ExtentLatticeTest, ToStringNames) {
  EXPECT_EQ(ExtentRelationToString(ExtentRelation::kEqual), "equal");
  EXPECT_EQ(ExtentRelationToString(ExtentRelation::kSuperset), "superset");
  EXPECT_EQ(ExtentRelationToString(ExtentRelation::kSubset), "subset");
  EXPECT_EQ(ExtentRelationToString(ExtentRelation::kUnknown), "unknown");
}

// --- PC-based inference (via full CVS runs) ---------------------------------

class ExtentInferenceTest : public ::testing::Test {
 protected:
  void SetUp() override { mkb_ = MakeTravelAgencyMkb().MoveValue(); }

  // Runs CVS for delete-relation Customer and returns the inferred extent
  // of the Accident-Ins-based rewriting.
  ExtentRelation InferredForAccidentIns() {
    const ViewDefinition view =
        ParseAndBindView(CustomerPassengersAsiaSql(), mkb_.catalog())
            .value();
    const auto evolution =
        EvolveMkb(mkb_, CapabilityChange::DeleteRelation("Customer"))
            .value();
    CvsOptions options;
    options.require_view_extent = false;
    const CvsResult result =
        SynchronizeDeleteRelation(view, "Customer",
                                  SyncContext{mkb_, evolution.mkb},
                                  options)
            .value();
    for (const SynchronizedView& rewriting : result.rewritings) {
      if (rewriting.view.HasFromRelation("Accident-Ins")) {
        return rewriting.legality.inferred_extent;
      }
    }
    ADD_FAILURE() << "no Accident-Ins rewriting";
    return ExtentRelation::kUnknown;
  }

  Mkb mkb_;
};

TEST_F(ExtentInferenceTest, WithoutPcConstraintExtentIsUnknown) {
  EXPECT_EQ(InferredForAccidentIns(), ExtentRelation::kUnknown);
}

TEST_F(ExtentInferenceTest, PcConstraintJustifiesSuperset) {
  ASSERT_TRUE(AddAccidentInsPc(&mkb_).ok());
  EXPECT_EQ(InferredForAccidentIns(), ExtentRelation::kSuperset);
}

TEST_F(ExtentInferenceTest, EqualPcGivesEqual) {
  ASSERT_TRUE(AddProjectionPC(&mkb_, "PC-EQ", "Accident-Ins", "Holder",
                              SetRelation::kEqual, "Customer", "Name")
                  .ok());
  EXPECT_EQ(InferredForAccidentIns(), ExtentRelation::kEqual);
}

TEST_F(ExtentInferenceTest, PcOnWrongAttributePairDoesNotJustify) {
  // A PC between the right relations but certifying an unrelated
  // correspondence (Type, Type) must not justify the Name -> Holder
  // replacement.
  ASSERT_TRUE(AddProjectionPC(&mkb_, "PC-WRONG", "Accident-Ins", "Type",
                              SetRelation::kSuperset, "Customer", "Phone")
                  .ok());
  EXPECT_EQ(InferredForAccidentIns(), ExtentRelation::kUnknown);
}

TEST_F(ExtentInferenceTest, SubsetPcGivesSubset) {
  ASSERT_TRUE(AddProjectionPC(&mkb_, "PC-SUB", "Accident-Ins", "Holder",
                              SetRelation::kSubset, "Customer", "Name")
                  .ok());
  EXPECT_EQ(InferredForAccidentIns(), ExtentRelation::kSubset);
}

// --- Empirical comparison -----------------------------------------------------

class EmpiricalExtentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb_, &db_, 50, 3).ok());
  }

  ViewDefinition View(const std::string& sql) {
    return ParseAndBindView(sql, mkb_.catalog()).MoveValue();
  }

  Mkb mkb_;
  Database db_;
};

TEST_F(EmpiricalExtentTest, IdenticalViewsAreEqual) {
  const ViewDefinition v = View(
      "CREATE VIEW V AS SELECT C.Name FROM Customer C, FlightRes F "
      "WHERE C.Name = F.PName");
  EXPECT_EQ(CompareExtentsEmpirically(v, v, db_, mkb_.catalog(),
                                      mkb_.catalog())
                .value(),
            ExtentRelation::kEqual);
}

TEST_F(EmpiricalExtentTest, DroppedFilterGivesSuperset) {
  const ViewDefinition filtered = View(
      "CREATE VIEW V AS SELECT C.Name, F.Dest FROM Customer C, FlightRes F "
      "WHERE C.Name = F.PName AND F.Dest = 'Asia'");
  const ViewDefinition unfiltered = View(
      "CREATE VIEW V2 AS SELECT C.Name, F.Dest FROM Customer C, "
      "FlightRes F WHERE C.Name = F.PName");
  EXPECT_EQ(CompareExtentsEmpirically(filtered, unfiltered, db_,
                                      mkb_.catalog(), mkb_.catalog())
                .value(),
            ExtentRelation::kSuperset);
  EXPECT_EQ(CompareExtentsEmpirically(unfiltered, filtered, db_,
                                      mkb_.catalog(), mkb_.catalog())
                .value(),
            ExtentRelation::kSubset);
}

TEST_F(EmpiricalExtentTest, ProjectionOnCommonInterfaceOnly) {
  // Views with different interfaces are compared on the shared columns.
  const ViewDefinition wide = View(
      "CREATE VIEW V AS SELECT C.Name, C.Age FROM Customer C");
  const ViewDefinition narrow =
      View("CREATE VIEW V2 AS SELECT C.Name FROM Customer C");
  EXPECT_EQ(CompareExtentsEmpirically(wide, narrow, db_, mkb_.catalog(),
                                      mkb_.catalog())
                .value(),
            ExtentRelation::kEqual);
}

TEST_F(EmpiricalExtentTest, DisjointInterfacesAreUnknown) {
  const ViewDefinition a =
      View("CREATE VIEW V AS SELECT C.Name FROM Customer C");
  const ViewDefinition b =
      View("CREATE VIEW V2 AS SELECT C.Age FROM Customer C");
  EXPECT_EQ(CompareExtentsEmpirically(a, b, db_, mkb_.catalog(),
                                      mkb_.catalog())
                .value(),
            ExtentRelation::kUnknown);
}

TEST_F(EmpiricalExtentTest, IncomparableExtents) {
  const ViewDefinition asia = View(
      "CREATE VIEW V AS SELECT F.PName FROM FlightRes F "
      "WHERE F.Dest = 'Asia'");
  const ViewDefinition europe = View(
      "CREATE VIEW V2 AS SELECT F.PName FROM FlightRes F "
      "WHERE F.Dest = 'Europe'");
  // With enough rows both directions contain non-shared names.
  EXPECT_EQ(CompareExtentsEmpirically(asia, europe, db_, mkb_.catalog(),
                                      mkb_.catalog())
                .value(),
            ExtentRelation::kUnknown);
}

// The paper's Ex. 4 claim: the Person-based rewriting of Asia-Customer is a
// superset of the original, validated empirically.
TEST_F(EmpiricalExtentTest, PaperExample4SupersetHoldsEmpirically) {
  Mkb extended = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddPersonExtension(&extended).ok());
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(extended, &db, 60, 9).ok());

  const ViewDefinition original =
      ParseAndBindView(AsiaCustomerSql(), extended.catalog()).value();
  const auto evolution =
      EvolveMkb(extended, CapabilityChange::DeleteAttribute("Customer",
                                                            "Addr"))
          .value();
  const CvsResult result =
      SynchronizeDeleteAttribute(original, "Customer", "Addr",
                                 SyncContext{extended, evolution.mkb}, {})
          .value();
  ASSERT_FALSE(result.rewritings.empty());
  // Evaluate both views against the pre-change catalog: the physical
  // tuples still carry the deleted column, and the pre-change schemas are
  // a superset of what either view references.
  const ExtentRelation empirical =
      CompareExtentsEmpirically(original, result.rewritings[0].view, db,
                                extended.catalog(), extended.catalog())
          .value();
  EXPECT_TRUE(empirical == ExtentRelation::kEqual ||
              empirical == ExtentRelation::kSuperset)
      << ExtentRelationToString(empirical);
}

}  // namespace
}  // namespace eve
