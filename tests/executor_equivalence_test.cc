// Differential testing of the executor strategies and of incremental view
// maintenance:
//  * randomized conjunctive queries (joins, 3VL predicates, expression
//    projections, NULL-heavy data) must produce byte-identical result
//    tables under kNestedLoop (the oracle) and kVectorized;
//  * MaterializedViewStore::IncrementalRefresh must produce an extent
//    byte-identical (after Deduplicate) to a full nested-loop Refresh for
//    every CVS verdict — Equal (wholesale reuse, incl. permuted
//    interfaces) and Superset, Subset and Unknown (full recompute).

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "algebra/executor.h"
#include "cvs/extent.h"
#include "eve/materialization.h"
#include "storage/database.h"
#include "workload/generator.h"

namespace eve {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation({"IS0",
                                "R",
                                Schema({{"k", DataType::kInt},
                                        {"p", DataType::kInt},
                                        {"q", DataType::kInt},
                                        {"d", DataType::kDouble},
                                        {"s", DataType::kString}}),
                                {}})
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation({"IS1",
                                "A",
                                Schema({{"k", DataType::kInt},
                                        {"w", DataType::kInt}}),
                                {}})
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation({"IS2",
                                "B",
                                Schema({{"j", DataType::kInt},
                                        {"u", DataType::kInt}}),
                                {}})
                  .ok());
  return catalog;
}

// NULL-heavy random data: every cell is NULL with probability ~0.15, so
// three-valued comparison and join-key semantics get exercised.
Value MaybeNullInt(std::mt19937_64* rng, int64_t domain) {
  if ((*rng)() % 100 < 15) return Value::Null();
  return Value::Int(static_cast<int64_t>((*rng)() % domain));
}

Database MakeDatabase(const Catalog& catalog, std::mt19937_64* rng,
                      size_t r_rows, size_t a_rows, size_t b_rows) {
  Database db;
  EXPECT_TRUE(db.CreateAllTables(catalog).ok());
  static const char* kStrings[] = {"ann", "bob", "cat", "dee", "eel"};
  Table* r = db.GetTable("R").value();
  for (size_t i = 0; i < r_rows; ++i) {
    Tuple t;
    t.push_back(MaybeNullInt(rng, 8));
    t.push_back(MaybeNullInt(rng, 40));
    t.push_back(MaybeNullInt(rng, 40));
    t.push_back((*rng)() % 100 < 15
                    ? Value::Null()
                    : Value::Double(static_cast<double>((*rng)() % 400) / 4));
    t.push_back((*rng)() % 100 < 15
                    ? Value::Null()
                    : Value::String(kStrings[(*rng)() % 5]));
    r->InsertUnchecked(std::move(t));
  }
  Table* a = db.GetTable("A").value();
  for (size_t i = 0; i < a_rows; ++i) {
    Tuple t;
    t.push_back(MaybeNullInt(rng, 8));
    t.push_back(MaybeNullInt(rng, 40));
    a->InsertUnchecked(std::move(t));
  }
  Table* b = db.GetTable("B").value();
  for (size_t i = 0; i < b_rows; ++i) {
    Tuple t;
    t.push_back(MaybeNullInt(rng, 8));
    t.push_back(MaybeNullInt(rng, 40));
    b->InsertUnchecked(std::move(t));
  }
  return db;
}

ExprPtr Col(const std::string& rel, const std::string& attr) {
  return Expr::Column(AttributeRef{rel, attr});
}

// One random primitive predicate over the given relations' int columns:
// column-vs-literal or column-vs-column comparison, an arithmetic
// comparison, an OR of two comparisons, or a negation.
ExprPtr RandomPredicate(const std::vector<std::string>& rels,
                        std::mt19937_64* rng) {
  static const BinaryOp kCmp[] = {BinaryOp::kEq, BinaryOp::kNe,
                                  BinaryOp::kLt, BinaryOp::kLe,
                                  BinaryOp::kGt, BinaryOp::kGe};
  auto random_col = [&]() -> ExprPtr {
    const std::string& rel = rels[(*rng)() % rels.size()];
    if (rel == "R") {
      static const char* kAttrs[] = {"k", "p", "q", "d"};
      return Col(rel, kAttrs[(*rng)() % 4]);
    }
    if (rel == "A") return Col(rel, (*rng)() % 2 ? "k" : "w");
    return Col(rel, (*rng)() % 2 ? "j" : "u");
  };
  const BinaryOp op = kCmp[(*rng)() % 6];
  ExprPtr pred;
  switch ((*rng)() % 5) {
    case 0:
      pred = Expr::Binary(op, random_col(),
                          Expr::Lit(Value::Int((*rng)() % 40)));
      break;
    case 1:
      pred = Expr::Binary(op, random_col(), random_col());
      break;
    case 2:
      pred = Expr::Binary(
          op, Expr::Binary(BinaryOp::kAdd, random_col(), random_col()),
          Expr::Lit(Value::Int((*rng)() % 60)));
      break;
    case 3:
      pred = Expr::Binary(
          BinaryOp::kOr,
          Expr::Binary(op, random_col(), Expr::Lit(Value::Int((*rng)() % 40))),
          Expr::Binary(kCmp[(*rng)() % 6], random_col(),
                       Expr::Lit(Value::Int((*rng)() % 40))));
      break;
    default:
      pred = Expr::Unary(UnaryOp::kNot,
                         Expr::Binary(op, random_col(),
                                      Expr::Lit(Value::Int((*rng)() % 40))));
      break;
  }
  return pred;
}

ConjunctiveQuery RandomQuery(std::mt19937_64* rng) {
  ConjunctiveQuery q;
  const size_t shape = (*rng)() % 4;
  if (shape == 0) {
    q.relations = {"R"};
  } else if (shape == 1) {
    q.relations = {"R", "A"};
    q.conjuncts.push_back(Expr::ColumnsEqual({"R", "k"}, {"A", "k"}));
  } else if (shape == 2) {
    // Deliberately join-free pair: exercises the cartesian fallback in the
    // hash and vectorized paths (tables are small).
    q.relations = {"A", "B"};
  } else {
    q.relations = {"R", "A", "B"};
    q.conjuncts.push_back(Expr::ColumnsEqual({"R", "k"}, {"A", "k"}));
    q.conjuncts.push_back(Expr::ColumnsEqual({"A", "k"}, {"B", "j"}));
  }
  const size_t num_filters = (*rng)() % 3;
  for (size_t i = 0; i < num_filters; ++i) {
    q.conjuncts.push_back(RandomPredicate(q.relations, rng));
  }
  // Projections: every relation contributes one bare column, plus one
  // computed expression so the projection evaluators are exercised too.
  for (const std::string& rel : q.relations) {
    if (rel == "R") {
      q.projections.push_back(Col("R", "p"));
      q.output_names.push_back("P");
      q.projections.push_back(Col("R", "s"));
      q.output_names.push_back("S");
    } else if (rel == "A") {
      q.projections.push_back(Col("A", "w"));
      q.output_names.push_back("W");
    } else {
      q.projections.push_back(Col("B", "u"));
      q.output_names.push_back("U");
    }
  }
  q.projections.push_back(
      Expr::Binary(BinaryOp::kAdd, Col(q.relations.front(), "k"),
                   Expr::Lit(Value::Int(1))));
  q.output_names.push_back("E");
  q.distinct = true;
  return q;
}

// Byte-identity after Deduplicate: same schema, same row count, and
// strictly equal Values cell by cell in dedup-sorted order.
void ExpectTablesIdentical(const Table& got, const Table& want,
                           const std::string& context) {
  ASSERT_EQ(got.schema().ToString(), want.schema().ToString()) << context;
  Table a = got;
  Table b = want;
  a.Deduplicate();
  b.Deduplicate();
  ASSERT_EQ(a.NumRows(), b.NumRows()) << context;
  for (size_t row = 0; row < a.NumRows(); ++row) {
    for (size_t col = 0; col < a.NumColumns(); ++col) {
      const Value va = a.column(col).GetValue(row);
      const Value vb = b.column(col).GetValue(row);
      ASSERT_TRUE(va == vb || (va.is_null() && vb.is_null()))
          << context << ": row " << row << " col " << col << " differ: "
          << va.ToString() << " vs " << vb.ToString();
    }
  }
}

TEST(ExecutorEquivalenceTest, RandomizedDifferentialAcrossStrategies) {
  const Catalog catalog = MakeCatalog();
  for (uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(seed * 7919 + 1);
    const Database db =
        MakeDatabase(catalog, &rng, /*r_rows=*/60 + seed % 64,
                     /*a_rows=*/20 + seed % 16, /*b_rows=*/6);
    const ConjunctiveQuery query = RandomQuery(&rng);
    const Result<Table> oracle =
        Execute(query, db, catalog, nullptr, JoinStrategy::kNestedLoop);
    ASSERT_TRUE(oracle.ok()) << "seed " << seed << ": " << oracle.status();
    const Result<Table> got =
        Execute(query, db, catalog, nullptr, JoinStrategy::kVectorized);
    ASSERT_TRUE(got.ok()) << "seed " << seed << ": " << got.status();
    ExpectTablesIdentical(got.value(), oracle.value(),
                          "seed " + std::to_string(seed));
  }
}

TEST(ExecutorEquivalenceTest, CartesianFallbackBumpsCounter) {
  const Catalog catalog = MakeCatalog();
  std::mt19937_64 rng(42);
  const Database db = MakeDatabase(catalog, &rng, 10, 8, 4);
  ConjunctiveQuery q;
  q.relations = {"A", "B"};
  q.projections = {Col("A", "w"), Col("B", "u")};
  q.output_names = {"W", "U"};
  GlobalExecutorCounters().Reset();
  for (const JoinStrategy strategy :
       {JoinStrategy::kNestedLoop, JoinStrategy::kVectorized}) {
    ASSERT_TRUE(Execute(q, db, catalog, nullptr, strategy).ok());
  }
  // Only the vectorized path has a cartesian fallback to count; the
  // oracle's nested loops are cartesian by construction.
  EXPECT_EQ(GlobalExecutorCounters().cartesian_fallbacks.load(), 1u);
  EXPECT_EQ(GlobalExecutorCounters().nested_loop_queries.load(), 1u);
  EXPECT_EQ(GlobalExecutorCounters().vectorized_queries.load(), 1u);
}

// --- Incremental refresh vs full refresh ----------------------------------

ViewDefinition MakeView(const std::string& name,
                        std::vector<ViewSelectItem> select,
                        std::vector<ViewCondition> where) {
  std::vector<ViewRelation> from = {{"R", {}}, {"A", {}}};
  return ViewDefinition(name, ViewExtent::kAny, std::move(select),
                        std::move(from), std::move(where));
}

std::vector<ViewSelectItem> BaseSelect() {
  return {{Col("R", "p"), "P", {}},
          {Col("R", "q"), "Q", {}},
          {Col("A", "w"), "W", {}}};
}

ViewCondition JoinCond() {
  return {Expr::ColumnsEqual({"R", "k"}, {"A", "k"}), {}};
}

// IncrementalRefresh(old, new, verdict) must agree byte-for-byte with a
// full nested-loop Refresh(new) for every verdict, on NULL-heavy data.
TEST(IncrementalRefreshTest, MatchesFullRefreshForEveryVerdict) {
  const Catalog catalog = MakeCatalog();
  for (uint64_t seed = 0; seed < 12; ++seed) {
    std::mt19937_64 rng(seed + 100);
    const Database db = MakeDatabase(catalog, &rng, 80, 30, 4);

    const ViewCondition drop1 = {
        Expr::Binary(BinaryOp::kLt, Col("R", "q"),
                     Expr::Lit(Value::Int(30))),
        {}};
    const ViewCondition drop2 = {
        Expr::Binary(BinaryOp::kGe, Col("R", "p"),
                     Expr::Lit(Value::Int(5))),
        {}};

    struct Case {
      const char* name;
      ViewDefinition old_view;
      ViewDefinition new_view;
      ExtentRelation verdict;
      RefreshPath want_path;
    };
    const std::vector<Case> cases = {
        // Equal: identical definition under a new registration.
        {"equal-same-order",
         MakeView("v", BaseSelect(), {JoinCond(), drop1}),
         MakeView("v", BaseSelect(), {JoinCond(), drop1}),
         ExtentRelation::kEqual, RefreshPath::kReuseEqual},
        // Equal with a permuted interface: zero row work, permuted handles.
        {"equal-permuted",
         MakeView("v", BaseSelect(), {JoinCond()}),
         MakeView("v",
                  {{Col("A", "w"), "W", {}},
                   {Col("R", "q"), "Q", {}},
                   {Col("R", "p"), "P", {}}},
                  {JoinCond()}),
         ExtentRelation::kEqual, RefreshPath::kReuseEqual},
        // Superset and Subset: no delta rule exists, so the store
        // recomputes from the base tables.
        {"superset-refreshes-fully",
         MakeView("v", BaseSelect(), {JoinCond(), drop1, drop2}),
         MakeView("v", BaseSelect(), {JoinCond()}),
         ExtentRelation::kSuperset, RefreshPath::kFull},
        {"subset-refreshes-fully",
         MakeView("v", BaseSelect(), {JoinCond()}),
         MakeView("v", BaseSelect(), {JoinCond(), drop1, drop2}),
         ExtentRelation::kSubset, RefreshPath::kFull},
        // Unknown: full-recompute fallback.
        {"unknown-falls-back",
         MakeView("v", BaseSelect(), {JoinCond(), drop1}),
         MakeView("v", BaseSelect(), {JoinCond()}),
         ExtentRelation::kUnknown, RefreshPath::kFull},
    };

    for (const Case& c : cases) {
      const std::string context =
          std::string(c.name) + " seed " + std::to_string(seed);
      // The claimed verdict must hold empirically (db is unchanged, so old
      // and new evaluate over the same state). Unknown claims nothing.
      if (c.verdict != ExtentRelation::kUnknown) {
        const Result<ExtentRelation> empirical = CompareExtentsEmpirically(
            c.old_view, c.new_view, db, catalog, catalog, nullptr,
            JoinStrategy::kVectorized);
        ASSERT_TRUE(empirical.ok()) << context;
        const bool compatible =
            empirical.value() == c.verdict ||
            empirical.value() == ExtentRelation::kEqual;
        EXPECT_TRUE(compatible)
            << context << ": empirical verdict "
            << ExtentRelationToString(empirical.value());
      }

      MaterializedViewStore incremental;
      incremental.SetStrategy(JoinStrategy::kVectorized);
      ASSERT_TRUE(incremental.Refresh(c.old_view, db, catalog).ok())
          << context;
      ASSERT_TRUE(incremental
                      .IncrementalRefresh(c.old_view, c.new_view, c.verdict,
                                          db, catalog)
                      .ok())
          << context;
      EXPECT_EQ(incremental.StatsFor("v").last_path, c.want_path) << context;

      MaterializedViewStore full;
      full.SetStrategy(JoinStrategy::kNestedLoop);
      ASSERT_TRUE(full.Refresh(c.new_view, db, catalog).ok()) << context;
      ExpectTablesIdentical(*incremental.Extent("v").value(),
                            *full.Extent("v").value(), context);
    }
  }
}

// A failed precondition must fall back to a full refresh, not produce a
// wrong extent: an Equal verdict whose interface names differ.
TEST(IncrementalRefreshTest, InapplicableRuleFallsBackToFull) {
  const Catalog catalog = MakeCatalog();
  std::mt19937_64 rng(3);
  const Database db = MakeDatabase(catalog, &rng, 40, 15, 4);
  const ViewCondition cond = {Expr::Binary(BinaryOp::kLt, Col("R", "q"),
                                           Expr::Lit(Value::Int(20))),
                              {}};
  const ViewDefinition old_view = MakeView("v", BaseSelect(), {JoinCond(), cond});
  // New view also renames an output: the interface name sets differ.
  const ViewDefinition new_view =
      MakeView("v",
               {{Col("R", "p"), "P2", {}},
                {Col("R", "q"), "Q", {}},
                {Col("A", "w"), "W", {}}},
               {JoinCond()});
  MaterializedViewStore store;
  ASSERT_TRUE(store.Refresh(old_view, db, catalog).ok());
  ASSERT_TRUE(store
                  .IncrementalRefresh(old_view, new_view,
                                      ExtentRelation::kEqual, db, catalog)
                  .ok());
  EXPECT_EQ(store.StatsFor("v").last_path, RefreshPath::kFull);
  MaterializedViewStore full;
  ASSERT_TRUE(full.Refresh(new_view, db, catalog).ok());
  ExpectTablesIdentical(*store.Extent("v").value(), *full.Extent("v").value(),
                        "inapplicable");
}

// The skewed workload generator is deterministic and honors its knobs.
TEST(SkewedDataTest, DeterministicAndSelective) {
  const Catalog catalog = MakeCatalog();
  SkewedDataSpec spec;
  spec.rows = 2000;
  spec.join_domain = 16;
  spec.join_selectivity = 0.25;
  spec.value_skew = 1.5;
  spec.seed = 9;
  Database db1;
  Database db2;
  ASSERT_TRUE(PopulateRelationSkewed(catalog, "A", spec, &db1).ok());
  ASSERT_TRUE(PopulateRelationSkewed(catalog, "A", spec, &db2).ok());
  const Table* t1 = db1.GetTable("A").value();
  const Table* t2 = db2.GetTable("A").value();
  ASSERT_EQ(t1->NumRows(), spec.rows);
  ExpectTablesIdentical(*t1, *t2, "determinism");
  // 'k' is a join key (name does not start with L here, so check by the
  // generator's contract on a relation whose key is L-prefixed instead).
  size_t hot = 0;
  for (size_t row = 0; row < t1->NumRows(); ++row) {
    const Value v = t1->column(0).GetValue(row);
    if (!v.is_null() && v.int_value() >= 0) ++hot;
  }
  // Non-L columns are plain skewed values, all in [0, domain): sanity.
  EXPECT_EQ(hot, t1->NumRows());
}

TEST(SkewedDataTest, JoinSelectivityControlsMatchRate) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation({"IS0",
                                "S",
                                Schema({{"L0", DataType::kInt},
                                        {"v", DataType::kInt}}),
                                {}})
                  .ok());
  SkewedDataSpec spec;
  spec.rows = 4000;
  spec.join_domain = 8;
  spec.join_selectivity = 0.3;
  spec.seed = 4;
  Database db;
  ASSERT_TRUE(PopulateRelationSkewed(catalog, "S", spec, &db).ok());
  const Table* s = db.GetTable("S").value();
  size_t hot = 0;
  for (size_t row = 0; row < s->NumRows(); ++row) {
    const Value v = s->column(0).GetValue(row);
    ASSERT_FALSE(v.is_null());
    if (v.int_value() >= 0) {
      ASSERT_LT(v.int_value(), spec.join_domain);
      ++hot;
    }
  }
  const double frac = static_cast<double>(hot) / spec.rows;
  EXPECT_NEAR(frac, spec.join_selectivity, 0.05);
}

}  // namespace
}  // namespace eve
