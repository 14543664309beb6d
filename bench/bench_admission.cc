// Admission/deadline benchmark. Two questions:
//   1. What does threading a live DeadlineToken through the enumeration
//      cost when it never fires? BM_SynchronizeNoToken vs
//      BM_SynchronizeFreeToken time the identical cover-fan search without
//      and with a (never-expiring) token; run_benchmarks.sh computes the
//      overhead ratio and flags anything above the 2% budget.
//   2. What latency does the bounded sync queue deliver under overload?
//      BM_AdmissionBatch runs enqueue→shed→drain cycles against a 1-shard
//      serving core (ShardedEveSystem, as eved runs it) and reports
//      p50/p99 cycle latency plus per-batch shed and completed counts.
// The validation pass asserts a generous-budget run returns byte-identical
// rewritings to the token-free run before any timing starts.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "cvs/cvs.h"
#include "eve/sharded_system.h"
#include "mkb/capability_change.h"
#include "mkb/evolution.h"
#include "workload/generator.h"

namespace eve {
namespace {

struct Scenario {
  Mkb mkb;
  Mkb mkb_prime;
  ViewDefinition view;
};

std::unique_ptr<Scenario> MakeScenario(size_t covers) {
  CoverFanMkbSpec spec;
  spec.num_covers = covers;
  auto s = std::make_unique<Scenario>();
  s->mkb = MakeCoverFanMkb(spec).MoveValue();
  s->view = MakeCoverFanView(s->mkb).MoveValue();
  s->mkb_prime = EvolveMkb(s->mkb, CapabilityChange::DeleteRelation("R0"))
                     .MoveValue()
                     .mkb;
  return s;
}

CvsOptions WideCvsOptions(size_t covers) {
  CvsOptions options;
  options.replacement.max_results = 1000000;
  options.replacement.max_cover_combinations = 1000000;
  options.replacement.max_extra_relations = covers;
  return options;
}

// Identical search with no token: the deadline machinery's zero-cost path.
void BM_SynchronizeNoToken(benchmark::State& state) {
  const std::unique_ptr<Scenario> s = MakeScenario(state.range(0));
  const CvsOptions options = WideCvsOptions(state.range(0));
  for (auto _ : state) {
    const auto result = SynchronizeDeleteRelation(s->view, "R0", s->mkb,
                                                  s->mkb_prime, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SynchronizeNoToken)->Arg(8)->Arg(16);

// The same search carrying a live token whose budget is far too large to
// fire: every enumeration step pays the Spend check and nothing stops, so
// the delta against BM_SynchronizeNoToken is pure deadline overhead.
void BM_SynchronizeFreeToken(benchmark::State& state) {
  const std::unique_ptr<Scenario> s = MakeScenario(state.range(0));
  CvsOptions options = WideCvsOptions(state.range(0));
  for (auto _ : state) {
    options.replacement.token =
        DeadlineToken::Root({1ull << 60, 0});
    const auto result = SynchronizeDeleteRelation(s->view, "R0", s->mkb,
                                                  s->mkb_prime, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SynchronizeFreeToken)->Arg(8)->Arg(16);

// Chain system for the admission cycles (matches the admission_test
// workload: even views reference the victim R1, odd ones live far away).
// A 1-shard serving core, which owns the admission queue, as in eved.
ShardedEveSystem MakeChainSystem(const Mkb& mkb, size_t num_views) {
  ShardedEveSystem system(mkb, {}, 1);
  for (size_t i = 0; i < num_views; ++i) {
    const size_t start = (i % 2 == 0) ? (i / 2) % 2 : 10 + (i / 2) % 10;
    ViewDefinition view = MakeChainView(mkb, start, 3).MoveValue();
    view.set_name("BV" + std::to_string(i));
    if (!system.RegisterView(view).ok()) std::abort();
  }
  return system;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t index = std::min(
      sorted.size() - 1, static_cast<size_t>(p * (sorted.size() - 1)));
  return sorted[index];
}

// One iteration = one overload cycle: submit six changes against a queue
// of `range(0)`, shedding the excess, then drain what was admitted under a
// per-view work budget. Latencies are aggregated into p50/p99 counters.
void BM_AdmissionBatch(benchmark::State& state) {
  ChainMkbSpec spec;
  spec.length = 24;
  spec.skip_edges = true;
  spec.cover_distance = 2;
  const Mkb mkb = MakeChainMkb(spec).MoveValue();
  const size_t queue_limit = state.range(0);
  const std::vector<CapabilityChange> batch = {
      CapabilityChange::DeleteRelation("R1"),
      CapabilityChange::DeleteAttribute("R10", "P10"),
      CapabilityChange::DeleteRelation("R20"),
      CapabilityChange::DeleteAttribute("R12", "P12"),
      CapabilityChange::DeleteRelation("R5"),
      CapabilityChange::DeleteAttribute("R15", "P15"),
  };
  std::vector<double> latencies_us;
  uint64_t shed = 0;
  uint64_t completed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ShardedEveSystem system = MakeChainSystem(mkb, 8);
    system.SetSyncQueueLimit(queue_limit);
    system.shard(0).SetSyncWorkBudget(200);
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    for (const CapabilityChange& change : batch) {
      (void)system.EnqueueChange(change);  // overflow sheds explicitly
    }
    const auto reports = system.DrainSyncQueue();
    benchmark::DoNotOptimize(reports);
    const auto end = std::chrono::steady_clock::now();
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
    shed = system.admission_stats().shed;
    completed = system.admission_stats().completed;
    if (!reports.ok()) state.SkipWithError("drain failed");
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["p50_us"] = Percentile(latencies_us, 0.50);
  state.counters["p99_us"] = Percentile(latencies_us, 0.99);
  state.counters["shed_per_batch"] = static_cast<double>(shed);
  state.counters["completed_per_batch"] = static_cast<double>(completed);
}
BENCHMARK(BM_AdmissionBatch)->Arg(2)->Arg(4)->Arg(6);

// Before timing: a token that cannot fire must not change the answer.
bool ValidateFreeTokenEquivalence() {
  for (const size_t covers : {8u, 16u}) {
    const std::unique_ptr<Scenario> s = MakeScenario(covers);
    const auto bare = SynchronizeDeleteRelation(
        s->view, "R0", s->mkb, s->mkb_prime, WideCvsOptions(covers));
    CvsOptions tokened = WideCvsOptions(covers);
    tokened.replacement.token = DeadlineToken::Root({1ull << 60, 0});
    const auto budgeted = SynchronizeDeleteRelation(s->view, "R0", s->mkb,
                                                    s->mkb_prime, tokened);
    if (!bare.ok() || !budgeted.ok()) return false;
    if (budgeted.value().enumeration.deadline.partial) return false;
    if (bare.value().rewritings.size() != budgeted.value().rewritings.size())
      return false;
    for (size_t i = 0; i < bare.value().rewritings.size(); ++i) {
      if (bare.value().rewritings[i].view.ToString() !=
          budgeted.value().rewritings[i].view.ToString()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  std::cout << "# bench_admission: deadline-token overhead on the cover-fan "
               "search + bounded-queue batch latency under shedding\n";
  if (!eve::ValidateFreeTokenEquivalence()) {
    std::cerr << "FATAL: a non-firing token changed the synchronization "
                 "result\n";
    return 1;
  }
  std::cout << "# validated: free-token run == token-free run at every "
               "sweep point\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
