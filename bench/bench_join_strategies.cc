// Join-strategy ablation: nested-loop vs vectorized execution of view
// extents. The empirical P3 check (E8) evaluates views over growing
// states; this bench quantifies why the vectorized path is the default
// there (O(N) vs O(N²) on equi-joins), sweeps it from a single customer
// up so the small-input end is covered, and verifies both strategies
// agree.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>

#include "esql/binder.h"
#include "esql/evaluator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

struct Fixture {
  Mkb mkb;
  ViewDefinition view;
};

Fixture MakeFixture() {
  Fixture f;
  f.mkb = MakeTravelAgencyMkb().MoveValue();
  f.view = ParseAndBindView(CustomerPassengersAsiaSql(), f.mkb.catalog())
               .MoveValue();
  return f;
}

void PrintReproduction() {
  Fixture f = MakeFixture();
  Database db;
  Status status = PopulateTravelAgencyDatabase(f.mkb, &db, 200, 5);
  if (!status.ok()) {
    std::cerr << status << std::endl;
    std::exit(1);
  }
  const Result<Table> nested = EvaluateView(
      f.view, db, f.mkb.catalog(), nullptr, JoinStrategy::kNestedLoop);
  const Result<Table> vectorized = EvaluateView(
      f.view, db, f.mkb.catalog(), nullptr, JoinStrategy::kVectorized);
  if (!nested.ok() || !vectorized.ok()) {
    std::cerr << nested.status() << " / " << vectorized.status()
              << std::endl;
    std::exit(1);
  }
  std::cout << "=== join-strategy ablation ===\n"
            << "paper view over 200 customers: nested-loop rows = "
            << nested.value().NumRows()
            << ", vectorized rows = " << vectorized.value().NumRows()
            << ", identical sets: "
            << (nested.value().SetEquals(vectorized.value()) ? "yes" : "NO")
            << "\n\n";
}

void RunStrategy(benchmark::State& state, JoinStrategy strategy) {
  Fixture f = MakeFixture();
  Database db;
  Status status = PopulateTravelAgencyDatabase(
      f.mkb, &db, static_cast<size_t>(state.range(0)), 5);
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateView(f.view, db, f.mkb.catalog(), nullptr, strategy));
  }
  state.SetComplexityN(state.range(0));
}

void BM_NestedLoop(benchmark::State& state) {
  RunStrategy(state, JoinStrategy::kNestedLoop);
}
BENCHMARK(BM_NestedLoop)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_Vectorized(benchmark::State& state) {
  RunStrategy(state, JoinStrategy::kVectorized);
}
BENCHMARK(BM_Vectorized)->RangeMultiplier(4)->Range(1, 4096)->Complexity();

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  eve::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
