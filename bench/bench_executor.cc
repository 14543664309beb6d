// Columnar data plane at scale: vectorized executor vs the nested-loop
// oracle, and incremental extent maintenance (IncrementalRefresh under
// the Equal verdict, the one verdict with a rule) vs full
// re-materialization.
//
// The workload is a two-relation chain join R0 ⋈ R1 with a 10M-row R0
// (EVE_BENCH_EXECUTOR_ROWS overrides; the in-tree default is 65536 so the
// CI smoke run stays fast) populated by PopulateRelationSkewed: 90% of R0
// rows carry a hot join key that matches ~1 R1 row, payloads draw from a
// skewed 1M-value domain. The view is
//
//   base           SELECT P0, P1 FROM R0, R1 WHERE R0.L0 = R1.L0
//
// Before any timing, the binary validates (and exits nonzero on failure):
//   1. nested-loop and vectorized execution produce identical sets;
//   2. IncrementalRefresh under Equal is set-identical to a full Refresh
//      AND actually reused the extent (a silent fallback to kFull would
//      make the timings a lie).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "algebra/executor.h"
#include "esql/evaluator.h"
#include "eve/materialization.h"
#include "workload/generator.h"

namespace eve {
namespace {

constexpr int64_t kValueDomain = 1000000;
constexpr size_t kDimRows = 4096;  // R1: one expected match per hot key
constexpr uint64_t kSeed = 7;

size_t BigRows() {
  if (const char* env = std::getenv("EVE_BENCH_EXECUTOR_ROWS");
      env != nullptr && *env != '\0') {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 65536;
}

struct Fixture {
  Mkb mkb;
  Database db;
  FunctionRegistry registry = FunctionRegistry::Default();
  ViewDefinition base;  // V: the join, no extra conditions
  size_t rows = 0;
};

std::unique_ptr<Fixture> MakeFixture(size_t rows) {
  auto f = std::make_unique<Fixture>();
  ChainMkbSpec spec;
  spec.length = 2;
  spec.skip_edges = false;
  spec.cover_distance = 0;
  spec.extra_attributes = 0;
  spec.pc_constraints = false;
  f->mkb = MakeChainMkb(spec).MoveValue();
  f->rows = rows;

  SkewedDataSpec fact;
  fact.rows = rows;
  fact.value_domain = kValueDomain;
  fact.value_skew = 0.5;
  fact.join_domain = static_cast<int64_t>(kDimRows);
  fact.join_selectivity = 0.9;
  fact.seed = kSeed;
  SkewedDataSpec dim = fact;
  dim.rows = kDimRows < rows ? kDimRows : rows;
  dim.value_skew = 0.0;
  dim.join_selectivity = 1.0;
  dim.seed = kSeed + 1;
  Status status =
      PopulateRelationSkewed(f->mkb.catalog(), "R0", fact, &f->db);
  if (status.ok()) {
    status = PopulateRelationSkewed(f->mkb.catalog(), "R1", dim, &f->db);
  }
  if (!status.ok()) {
    std::cerr << "fixture population failed: " << status << std::endl;
    std::exit(1);
  }

  f->base = MakeChainView(f->mkb, 0, 2).MoveValue();
  f->base.set_name("V");
  return f;
}

// Fixtures are expensive to populate (BigRows() is 10M in the published
// numbers); build each row count once and share it across benchmarks.
Fixture& GetFixture(size_t rows) {
  static std::map<size_t, std::unique_ptr<Fixture>>* cache =
      new std::map<size_t, std::unique_ptr<Fixture>>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    it = cache->emplace(rows, MakeFixture(rows)).first;
  }
  return *it->second;
}

void Require(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "VALIDATION FAILED: " << what << std::endl;
    std::exit(1);
  }
}

// Materialize the view, bring it incrementally to the same definition
// under the Equal verdict, and demand (a) the extent was reused and (b) the
// result is set-identical to a full refresh.
void CheckIncrementalEqual(Fixture& f) {
  MaterializedViewStore store(&f.registry);
  Require(store.Refresh(f.base, f.db, f.mkb.catalog()).ok(),
          "materialize view");
  Require(store
              .IncrementalRefresh(f.base, f.base, ExtentRelation::kEqual,
                                  f.db, f.mkb.catalog())
              .ok(),
          "incremental refresh");
  Require(store.StatsFor("V").last_path == RefreshPath::kReuseEqual,
          std::string("expected path reuse_equal, got ") +
              RefreshPathToString(store.StatsFor("V").last_path));
  MaterializedViewStore full(&f.registry);
  Require(full.Refresh(f.base, f.db, f.mkb.catalog()).ok(),
          "full refresh");
  Require(store.Extent("V").value()->SetEquals(*full.Extent("V").value()),
          "incremental != full for verdict Equal");
}

void PrintReproduction() {
  Fixture& f = GetFixture(16384);
  const Result<Table> nested = EvaluateView(
      f.base, f.db, f.mkb.catalog(), &f.registry, JoinStrategy::kNestedLoop);
  const Result<Table> vectorized = EvaluateView(
      f.base, f.db, f.mkb.catalog(), &f.registry, JoinStrategy::kVectorized);
  Require(nested.ok() && vectorized.ok(), "strategy evaluation errored");
  Require(vectorized.value().SetEquals(nested.value()),
          "vectorized != nested-loop oracle");

  CheckIncrementalEqual(f);

  std::cout << "=== executor ablation ===\n"
            << "16384-row join: both strategies agree ("
            << nested.value().NumRows() << " rows); incremental refresh "
            << "matches full refresh for Equal via extent reuse\n"
            << "timed R0 rows: " << BigRows() << "\n\n";
}

// --- Query execution strategies -----------------------------------------

void RunStrategy(benchmark::State& state, JoinStrategy strategy,
                 size_t rows) {
  Fixture& f = GetFixture(rows);
  size_t out_rows = 0;
  for (auto _ : state) {
    Result<Table> result =
        EvaluateView(f.base, f.db, f.mkb.catalog(), &f.registry, strategy);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    out_rows = result.value().NumRows();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * rows));
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["out_rows"] = static_cast<double>(out_rows);
}

// The oracle is O(|R0| x |R1|); timing it at the 10M scale is pointless,
// so it runs at a capped size where the quadratic blowup is visible but
// bounded.
void BM_QueryNestedLoop(benchmark::State& state) {
  RunStrategy(state, JoinStrategy::kNestedLoop,
              BigRows() < 8192 ? BigRows() : 8192);
}
BENCHMARK(BM_QueryNestedLoop)->Unit(benchmark::kMillisecond);

void BM_QueryVectorized(benchmark::State& state) {
  RunStrategy(state, JoinStrategy::kVectorized, BigRows());
}
BENCHMARK(BM_QueryVectorized)->Unit(benchmark::kMillisecond);

// --- Full vs incremental re-materialization ------------------------------

// The baseline the Equal rule competes against, and what every other
// verdict runs: recompute the rewritten view from the base tables.
void BM_FullRefresh(benchmark::State& state) {
  Fixture& f = GetFixture(BigRows());
  MaterializedViewStore store(&f.registry);
  for (auto _ : state) {
    const Status status = store.Refresh(f.base, f.db, f.mkb.catalog());
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  state.counters["rows"] = static_cast<double>(f.rows);
  state.counters["out_rows"] =
      static_cast<double>(store.Extent("V").value()->NumRows());
}
BENCHMARK(BM_FullRefresh)->Unit(benchmark::kMillisecond);

// Verdict Equal: the extent is adopted wholesale — O(columns), no scan.
void BM_IncrementalEqual(benchmark::State& state) {
  Fixture& f = GetFixture(BigRows());
  MaterializedViewStore store(&f.registry);
  Status status = store.Refresh(f.base, f.db, f.mkb.catalog());
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    status = store.IncrementalRefresh(f.base, f.base, ExtentRelation::kEqual,
                                      f.db, f.mkb.catalog());
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  if (store.StatsFor("V").last_path != RefreshPath::kReuseEqual) {
    state.SkipWithError("Equal rule fell back to full refresh");
    return;
  }
  state.counters["rows"] = static_cast<double>(f.rows);
  state.counters["out_rows"] =
      static_cast<double>(store.Extent("V").value()->NumRows());
}
BENCHMARK(BM_IncrementalEqual)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  eve::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
