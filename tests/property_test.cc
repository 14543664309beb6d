// Property-style suites (parameterized over seeds and topologies):
//  * print/parse/bind round-trips for generated views,
//  * MKB-evolution invariants (no dangling references in MKB'),
//  * CVS soundness: every returned rewriting independently satisfies
//    P1/P2/P4 and evaluates over a populated database,
//  * extent-inference soundness on constraint-consistent data: an inferred
//    ⊇ is never contradicted empirically,
//  * no rewriting of any delete or rename only adds or only drops WHERE
//    clauses, so extent maintenance needs no Subset or Superset rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "cvs/cvs.h"
#include "esql/binder.h"
#include "esql/evaluator.h"
#include "mkb/evolution.h"
#include "mkb/serializer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/generator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

enum class Topology { kChain, kStar, kGrid, kRandom };

struct PropertyParam {
  Topology topology;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<PropertyParam>& info) {
  std::string name;
  switch (info.param.topology) {
    case Topology::kChain:
      name = "Chain";
      break;
    case Topology::kStar:
      name = "Star";
      break;
    case Topology::kGrid:
      name = "Grid";
      break;
    case Topology::kRandom:
      name = "Random";
      break;
  }
  return name + "Seed" + std::to_string(info.param.seed);
}

Mkb BuildMkb(Topology topology, uint64_t seed) {
  switch (topology) {
    case Topology::kChain: {
      ChainMkbSpec spec;
      spec.length = 8;
      spec.skip_edges = true;
      spec.cover_distance = 2;
      return MakeChainMkb(spec).MoveValue();
    }
    case Topology::kStar:
      return MakeStarMkb(6).MoveValue();
    case Topology::kGrid:
      return MakeGridMkb(3, 3).MoveValue();
    case Topology::kRandom: {
      RandomMkbSpec spec;
      spec.num_relations = 10;
      spec.seed = seed * 1000 + 7;
      return MakeRandomMkb(spec).MoveValue();
    }
  }
  return Mkb();
}

const PropertyParam kTopologies[] = {
    {Topology::kChain, 1},  {Topology::kChain, 2},  {Topology::kChain, 3},
    {Topology::kStar, 1},   {Topology::kStar, 2},   {Topology::kStar, 3},
    {Topology::kGrid, 1},   {Topology::kGrid, 2},   {Topology::kGrid, 3},
    {Topology::kRandom, 1}, {Topology::kRandom, 2}, {Topology::kRandom, 3},
    {Topology::kRandom, 4}, {Topology::kRandom, 5},
};

class GeneratedWorkloadTest
    : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(GeneratedWorkloadTest, PrintParseBindRoundTrip) {
  const Mkb mkb = BuildMkb(GetParam().topology, GetParam().seed);
  std::mt19937_64 rng(GetParam().seed);
  for (int i = 0; i < 10; ++i) {
    const ViewDefinition view =
        MakeRandomConnectedView(mkb, &rng, 3).value();
    const std::string printed = view.ToString();
    const Result<ParsedView> reparsed = ParseView(printed);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << printed;
    const Result<ViewDefinition> rebound =
        BindView(reparsed.value(), mkb.catalog());
    ASSERT_TRUE(rebound.ok()) << rebound.status() << "\n" << printed;
    EXPECT_EQ(rebound.value().ToString(), printed);
  }
}

TEST_P(GeneratedWorkloadTest, MkbEvolutionLeavesNoDanglingReferences) {
  const Mkb mkb = BuildMkb(GetParam().topology, GetParam().seed);
  std::mt19937_64 rng(GetParam().seed);
  const std::vector<std::string> relations = mkb.catalog().RelationNames();
  std::uniform_int_distribution<size_t> pick(0, relations.size() - 1);
  const std::string victim = relations[pick(rng)];

  const auto report =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation(victim)).value();
  const Mkb& prime = report.mkb;
  EXPECT_FALSE(prime.catalog().HasRelation(victim));
  for (const JoinConstraint& jc : prime.join_constraints()) {
    EXPECT_NE(jc.lhs, victim);
    EXPECT_NE(jc.rhs, victim);
    for (const ExprPtr& clause : jc.clauses) {
      std::vector<AttributeRef> cols;
      clause->CollectColumns(&cols);
      for (const AttributeRef& ref : cols) {
        EXPECT_TRUE(prime.catalog().HasAttribute(ref)) << ref.ToString();
      }
    }
  }
  for (const FunctionOfConstraint& fc : prime.function_of_constraints()) {
    EXPECT_TRUE(prime.catalog().HasAttribute(fc.target));
    EXPECT_TRUE(prime.catalog().HasAttribute(fc.source));
  }
  for (const PCConstraint& pc : prime.pc_constraints()) {
    EXPECT_TRUE(prime.catalog().HasRelation(pc.lhs_relation));
    EXPECT_TRUE(prime.catalog().HasRelation(pc.rhs_relation));
  }
}

TEST_P(GeneratedWorkloadTest, MisdSerializationRoundTrips) {
  const Mkb mkb = BuildMkb(GetParam().topology, GetParam().seed);
  const Result<Mkb> loaded = LoadMkb(SaveMkb(mkb));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().catalog().RelationNames(),
            mkb.catalog().RelationNames());
  EXPECT_EQ(loaded.value().join_constraints().size(),
            mkb.join_constraints().size());
  EXPECT_EQ(loaded.value().function_of_constraints().size(),
            mkb.function_of_constraints().size());
  EXPECT_EQ(loaded.value().pc_constraints().size(),
            mkb.pc_constraints().size());
  // Second round trip is textually stable.
  EXPECT_EQ(SaveMkb(loaded.value()), SaveMkb(mkb));
}

TEST_P(GeneratedWorkloadTest, CvsRewritingsAreSound) {
  const Mkb mkb = BuildMkb(GetParam().topology, GetParam().seed);
  std::mt19937_64 rng(GetParam().seed);
  Database db;
  ASSERT_TRUE(PopulateSyntheticDatabase(mkb, &db, 20, GetParam().seed).ok());

  CvsOptions options;
  options.require_view_extent = false;  // soundness of P1/P2/P4 is the point
  // A handful of candidates per deletion is plenty for the soundness
  // property; full enumeration is exercised by the benches.
  options.replacement.max_results = 4;
  options.replacement.max_cover_combinations = 16;

  size_t checked = 0;
  for (int i = 0; i < 8; ++i) {
    const ViewDefinition view =
        MakeRandomConnectedView(mkb, &rng, 3).value();
    for (const std::string& victim : view.FromRelationNames()) {
      const auto evolution =
          EvolveMkb(mkb, CapabilityChange::DeleteRelation(victim)).value();
      const Result<CvsResult> result = SynchronizeDeleteRelation(
          view, victim, mkb, evolution.mkb, options);
      ASSERT_TRUE(result.ok()) << result.status();
      for (const SynchronizedView& rewriting : result.value().rewritings) {
        ++checked;
        // P1: independently verified.
        EXPECT_FALSE(rewriting.view.ReferencesRelation(victim))
            << rewriting.view.ToString();
        // P2: rebinding against MKB'.
        EXPECT_TRUE(
            BindView(rewriting.view.ToParsedView(), evolution.mkb.catalog())
                .ok())
            << rewriting.view.ToString();
        // Internal report agrees.
        EXPECT_TRUE(rewriting.legality.p1_unaffected);
        EXPECT_TRUE(rewriting.legality.p2_evaluable);
        EXPECT_TRUE(rewriting.legality.p4_parameters)
            << rewriting.legality.ToString();
        // Evaluable over the (pre-change) physical state using the
        // pre-change catalog.
        const Result<Table> evaluated =
            EvaluateView(rewriting.view, db, mkb.catalog());
        EXPECT_TRUE(evaluated.ok()) << evaluated.status();
      }
    }
  }
  // The generated topologies have covers everywhere; most deletions must
  // be curable.
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, GeneratedWorkloadTest,
                         ::testing::ValuesIn(kTopologies), ParamName);

// --- Which refresh rule a rewriting can reach -------------------------------
//
// MaterializedViewStore::IncrementalRefresh reuses the stored extent for
// the Equal verdict and recomputes for every other one. A rule that filters
// the old extent by added conditions (Subset) or unions in the rows of
// dropped conditions (Superset) could only apply to a rewriting that keeps
// the FROM set and the select list and whose WHERE clauses only grow, or
// only shrink by clauses still evaluable over MKB'. This property is the
// evidence that CVS returns no such rewriting for any capability change
// that touches a view: every rewriting changes the FROM set or the select
// list, replaces a clause, or drops a clause over a column MKB' lacks.

// Delete and rename of every FROM relation and every referenced attribute.
std::vector<CapabilityChange> ChangesTouching(const ViewDefinition& view) {
  std::vector<CapabilityChange> changes;
  for (const std::string& relation : view.FromRelationNames()) {
    changes.push_back(CapabilityChange::DeleteRelation(relation));
    changes.push_back(
        CapabilityChange::RenameRelation(relation, relation + "Renamed"));
  }
  for (const AttributeRef& ref : view.ReferencedAttributes()) {
    changes.push_back(
        CapabilityChange::DeleteAttribute(ref.relation, ref.attribute));
    changes.push_back(CapabilityChange::RenameAttribute(
        ref.relation, ref.attribute, ref.attribute + "Renamed"));
  }
  return changes;
}

std::vector<std::string> SortedFrom(const ViewDefinition& view) {
  std::vector<std::string> names = view.FromRelationNames();
  std::sort(names.begin(), names.end());
  return names;
}

bool SameSelectList(const ViewDefinition& a, const ViewDefinition& b) {
  if (a.select().size() != b.select().size()) return false;
  for (size_t i = 0; i < a.select().size(); ++i) {
    if (a.select()[i].output_name != b.select()[i].output_name ||
        !a.select()[i].expr->Equals(*b.select()[i].expr)) {
      return false;
    }
  }
  return true;
}

bool HasClause(const std::vector<ViewCondition>& where, const Expr& clause) {
  return std::any_of(where.begin(), where.end(),
                     [&](const ViewCondition& c) {
                       return c.clause->Equals(clause);
                     });
}

bool ClausesWithin(const std::vector<ViewCondition>& sub,
                   const std::vector<ViewCondition>& super) {
  return std::all_of(sub.begin(), sub.end(), [&](const ViewCondition& c) {
    return HasClause(super, *c.clause);
  });
}

// True iff a clause of `before` missing from `after` reads a column that
// MKB' no longer has.
bool DropsClauseOverMissingColumn(const ViewDefinition& before,
                                  const ViewDefinition& after,
                                  const Catalog& catalog_prime) {
  for (const ViewCondition& c : before.where()) {
    if (HasClause(after.where(), *c.clause)) continue;
    std::vector<AttributeRef> refs;
    c.clause->CollectColumns(&refs);
    for (const AttributeRef& ref : refs) {
      if (!catalog_prime.HasAttribute(ref)) return true;
    }
  }
  return false;
}

// Synchronizes `view` against every change touching it and checks each
// rewriting; returns the number of rewritings checked.
size_t CheckRewritingsChangeMoreThanConditions(const Mkb& mkb,
                                               const ViewDefinition& view) {
  CvsOptions options;
  options.require_view_extent = false;  // every legal rewriting, any verdict
  options.replacement.max_results = 8;
  options.replacement.max_cover_combinations = 16;
  size_t checked = 0;
  for (const CapabilityChange& change : ChangesTouching(view)) {
    const Result<MkbEvolutionReport> evolution = EvolveMkb(mkb, change);
    EXPECT_TRUE(evolution.ok()) << change.ToString() << ": "
                                << evolution.status();
    if (!evolution.ok()) continue;
    const Catalog& catalog_prime = evolution.value().mkb.catalog();
    const Result<CvsResult> result =
        Synchronize(view, change, mkb, evolution.value().mkb, options);
    EXPECT_TRUE(result.ok()) << change.ToString() << ": " << result.status();
    if (!result.ok()) continue;
    for (const SynchronizedView& rewriting : result.value().rewritings) {
      ++checked;
      const ViewDefinition& next = rewriting.view;
      const bool from_differs = SortedFrom(view) != SortedFrom(next);
      const bool select_differs = !SameSelectList(view, next);
      const bool clauses_incomparable =
          !ClausesWithin(view.where(), next.where()) &&
          !ClausesWithin(next.where(), view.where());
      const bool drops_missing_column =
          DropsClauseOverMissingColumn(view, next, catalog_prime);
      EXPECT_TRUE(from_differs || select_differs || clauses_incomparable ||
                  drops_missing_column)
          << change.ToString() << "\n"
          << view.ToString() << "\n=> " << next.ToString();
    }
  }
  return checked;
}

TEST(GeneratedWorkloadTest, RewritingsNeverOnlyDropOrAddConditions) {
  size_t checked = 0;
  for (const PropertyParam& param : kTopologies) {
    SCOPED_TRACE(ParamName({param, 0}));
    const Mkb mkb = BuildMkb(param.topology, param.seed);
    std::mt19937_64 rng(param.seed);
    for (int i = 0; i < 8; ++i) {
      const ViewDefinition view =
          MakeRandomConnectedView(mkb, &rng, 3).value();
      checked += CheckRewritingsChangeMoreThanConditions(mkb, view);
    }
  }

  // The paper's travel agency: both worked-example views, plus a view
  // whose only reference to Customer.Phone is a dispensable filter (the
  // case where CVS drops a clause over a deleted column).
  Mkb travel = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddPersonExtension(&travel).ok());
  ASSERT_TRUE(AddAccidentInsPc(&travel).ok());
  ASSERT_TRUE(AddFlightResPc(&travel).ok());
  for (const std::string& sql :
       {AsiaCustomerSql(), CustomerPassengersAsiaSql(),
        std::string(R"sql(
    CREATE VIEW EarlyPhones (VE = ~) AS
    SELECT C.Name (false, true), C.Age (true, true)
    FROM Customer C (true, true)
    WHERE (C.Phone < 'phone_2') (true, true)
  )sql")}) {
    const Result<ViewDefinition> view =
        ParseAndBindView(sql, travel.catalog());
    ASSERT_TRUE(view.ok()) << view.status();
    checked += CheckRewritingsChangeMoreThanConditions(travel, view.value());
  }

  RecordProperty("rewritings_checked", static_cast<int>(checked));
  EXPECT_GT(checked, 0u);
}

// --- Extent soundness on constraint-consistent data ------------------------

class ExtentSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtentSoundnessTest, InferredSupersetNeverContradictedEmpirically) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddAccidentInsPc(&mkb).ok());
  ASSERT_TRUE(AddFlightResPc(&mkb).ok());
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 50, GetParam()).ok());

  const ViewDefinition view =
      ParseAndBindView(CustomerPassengersAsiaSql(), mkb.catalog()).value();
  const auto evolution =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("Customer")).value();
  const CvsResult result =
      SynchronizeDeleteRelation(view, "Customer", mkb, evolution.mkb)
          .value();
  ASSERT_FALSE(result.rewritings.empty());
  for (const SynchronizedView& rewriting : result.rewritings) {
    if (rewriting.legality.inferred_extent != ExtentRelation::kSuperset) {
      continue;
    }
    // Evaluate both over the pre-change state: the inferred ⊇ must hold.
    const ExtentRelation empirical =
        CompareExtentsEmpirically(view, rewriting.view, db, mkb.catalog(),
                                  mkb.catalog())
            .value();
    EXPECT_TRUE(empirical == ExtentRelation::kEqual ||
                empirical == ExtentRelation::kSuperset)
        << ExtentRelationToString(empirical) << "\n"
        << rewriting.view.ToString();
  }
}

TEST_P(ExtentSoundnessTest, PaperExample4AcrossSeeds) {
  Mkb mkb = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(AddPersonExtension(&mkb).ok());
  Database db;
  ASSERT_TRUE(PopulateTravelAgencyDatabase(mkb, &db, 40, GetParam()).ok());
  const ViewDefinition view =
      ParseAndBindView(AsiaCustomerSql(), mkb.catalog()).value();
  const auto evolution =
      EvolveMkb(mkb, CapabilityChange::DeleteAttribute("Customer", "Addr"))
          .value();
  const CvsResult result =
      SynchronizeDeleteAttribute(view, "Customer", "Addr", mkb,
                                 evolution.mkb, {})
          .value();
  ASSERT_FALSE(result.rewritings.empty());
  const ExtentRelation empirical =
      CompareExtentsEmpirically(view, result.rewritings[0].view, db,
                                mkb.catalog(), mkb.catalog())
          .value();
  EXPECT_TRUE(empirical == ExtentRelation::kEqual ||
              empirical == ExtentRelation::kSuperset)
      << ExtentRelationToString(empirical);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentSoundnessTest,
                         ::testing::Values(1, 7, 13, 29, 57, 101, 211, 499));

}  // namespace
}  // namespace eve
