// Sharded serving core: registration throughput, aggregate commit
// throughput at 1/4/16 shards on a disjoint-shard change stream, and
// pinned-snapshot read latency (p50/p99) while commits are in flight.
//
// The commit sweep is the acceptance benchmark for the sharded refactor:
// each change in the stream renames a payload attribute of one chain
// relation, and every view anchored on that relation is name-salted onto
// one 16-way hash shard, so a change touches exactly one shard's view
// partition. Shards the change does not touch commit their MKB replica
// through the shared-VIEWS fast path (O(MKB), no pool rendering), so in
// full-snapshot versioning mode per-commit rendering drops from O(pool)
// to O(pool / shards). That is per-commit WORK, not parallelism: this
// container has a single core, and the sweep's speedup is entirely
// explained by smaller version snapshots per shard.
//
// Before timing anything the binary replays the same change stream at 1,
// 4, and 16 shards and byte-compares every merged report; a mismatch is a
// determinism bug, so the whole binary refuses to produce numbers.
//
// Set EVE_BENCH_MILLION=1 to also run the million-view bulk-registration
// smoke (skipped by default to keep local runs quick).

#include <benchmark/benchmark.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sharding.h"
#include "eve/sharded_system.h"
#include "mkb/capability_change.h"
#include "workload/generator.h"

namespace eve {
namespace {

constexpr size_t kChain = 32;
constexpr size_t kAlignShards = 16;
// The stream renames payloads of the last kHotRels chain relations; each
// hot relation anchors kHotViews views, all name-salted onto shard
// (relation % 16) of a 16-way partition. The rest of the pool is "cold":
// anchored on relations the stream never touches, so per-change CVS work
// is constant while the pool (and thus the 1-shard snapshot render) can
// grow arbitrarily.
constexpr size_t kHotRels = 16;
constexpr size_t kHotViews = 8;

Mkb BenchMkb() {
  ChainMkbSpec spec;
  spec.length = kChain;
  spec.cover_distance = 0;   // renames need no covers; keep the MKB lean
  spec.extra_attributes = 0;
  Result<Mkb> mkb = MakeChainMkb(spec);
  if (!mkb.ok()) {
    std::cerr << "chain MKB failed: " << mkb.status() << "\n";
    std::abort();
  }
  return mkb.MoveValue();
}

ViewDefinition SingleRelationView(std::string name, size_t r) {
  const std::string rel = "R" + std::to_string(r);
  const std::string payload = "P" + std::to_string(r);
  std::vector<ViewSelectItem> select;
  select.push_back(ViewSelectItem{Expr::Column(AttributeRef{rel, payload}),
                                  payload, EvolutionParams{false, true}});
  std::vector<ViewRelation> from;
  from.push_back(ViewRelation{rel, EvolutionParams{false, true}});
  return ViewDefinition(std::move(name), ViewExtent::kAny, std::move(select),
                        std::move(from), {});
}

// `num_cold` cold views over the first kChain - kHotRels relations plus
// kHotRels * kHotViews hot views, the hot ones salted so that renaming
// R_r's payload affects views on exactly one 16-way hash bucket — the
// disjoint-shard stream the sweep needs.
std::vector<ViewDefinition> AlignedPool(size_t num_cold) {
  std::vector<ViewDefinition> pool;
  pool.reserve(num_cold + kHotRels * kHotViews);
  for (size_t v = 0; v < num_cold; ++v) {
    pool.push_back(
        SingleRelationView("cv" + std::to_string(v), v % (kChain - kHotRels)));
  }
  size_t h = 0;
  for (size_t r = kChain - kHotRels; r < kChain; ++r) {
    for (size_t k = 0; k < kHotViews; ++k, ++h) {
      std::string name = "hv" + std::to_string(h);
      for (uint64_t salt = 0; ShardOf(name, kAlignShards) != r % kAlignShards;
           ++salt) {
        name = "hv" + std::to_string(h) + "_s" + std::to_string(salt);
      }
      pool.push_back(SingleRelationView(std::move(name), r));
    }
  }
  return pool;
}

// Change i of the stream renames a hot relation's payload attribute; the
// second lap renames it back, so the stream cycles forever without
// growing the MKB.
CapabilityChange StreamChange(size_t i) {
  const size_t r = kChain - kHotRels + (i % kHotRels);
  const std::string rel = "R" + std::to_string(r);
  const std::string payload = "P" + std::to_string(r);
  const bool forward = (i / kHotRels) % 2 == 0;
  return forward
             ? CapabilityChange::RenameAttribute(rel, payload, payload + "x")
             : CapabilityChange::RenameAttribute(rel, payload + "x", payload);
}

std::unique_ptr<ShardedEveSystem> FreshSystem(const Mkb& mkb, size_t shards,
                                              const std::vector<ViewDefinition>& pool) {
  auto system = std::make_unique<ShardedEveSystem>(mkb, CvsOptions{}, shards);
  system->SetReportUnaffected(false);  // reports O(affected), all counts
  const Status registered = system->RegisterViewsBulk(pool);
  if (!registered.ok()) {
    std::cerr << "bulk registration failed: " << registered << "\n";
    std::abort();
  }
  return system;
}

// Determinism gate: the merged reports for the same stream must be
// byte-identical at every shard count, or the numbers below are for a
// broken system.
void ValidateMergedReportDeterminism() {
  const Mkb mkb = BenchMkb();
  const std::vector<ViewDefinition> pool = AlignedPool(256);
  std::vector<std::string> reference;
  for (const size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    std::unique_ptr<ShardedEveSystem> system = FreshSystem(mkb, shards, pool);
    std::vector<std::string> reports;
    for (size_t i = 0; i < 4 * kHotRels; ++i) {
      Result<ChangeReport> report = system->ApplyChange(StreamChange(i));
      if (!report.ok()) {
        std::cerr << "stream change " << i << " failed at " << shards
                  << " shards: " << report.status() << "\n";
        std::abort();
      }
      reports.push_back(report.value().ToString());
    }
    if (reference.empty()) {
      reference = std::move(reports);
    } else if (reports != reference) {
      std::cerr << "merged reports diverge at " << shards << " shards\n";
      std::abort();
    }
  }
}

// Bulk registration throughput: one RegisterViewsBulk of the whole pool,
// partitioned across shards; items/s = views registered per second.
void BM_BulkRegistration(benchmark::State& state) {
  const Mkb mkb = BenchMkb();
  const std::vector<ViewDefinition> pool = AlignedPool(4096);
  const size_t shards = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto system = std::make_unique<ShardedEveSystem>(mkb, CvsOptions{}, shards);
    system->SetReportUnaffected(false);
    state.ResumeTiming();
    if (!system->RegisterViewsBulk(pool).ok()) std::abort();
    state.PauseTiming();
    system.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pool.size()));
  state.counters["views"] = static_cast<double>(pool.size());
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_BulkRegistration)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The acceptance sweep: aggregate ApplyChange throughput on the
// disjoint-shard rename stream, full-snapshot versioning (the default),
// at 1 / 4 / 16 shards. items/s = committed changes per second.
void BM_DisjointCommitThroughput(benchmark::State& state) {
  const Mkb mkb = BenchMkb();
  const std::vector<ViewDefinition> pool = AlignedPool(16384);
  const size_t shards = static_cast<size_t>(state.range(0));
  std::unique_ptr<ShardedEveSystem> system = FreshSystem(mkb, shards, pool);
  size_t i = 0;
  for (auto _ : state) {
    Result<ChangeReport> report = system->ApplyChange(StreamChange(i++));
    if (!report.ok()) {
      std::cerr << "commit failed: " << report.status() << "\n";
      std::abort();
    }
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["views"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_DisjointCommitThroughput)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Pinned-snapshot reads while a writer commits the rename stream as fast
// as it can. Each iteration pins the published snapshot (one pointer
// copy) and reads through it; per-read latency is collected by hand so
// the counters can report p50/p99 and how many reads completed while a
// commit was in flight. Zero-blocking evidence: reads overlapping a
// commit complete orders of magnitude faster than the commit itself —
// they never wait for it.
void BM_PinnedReadDuringCommits(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const Mkb mkb = BenchMkb();
  const std::vector<ViewDefinition> pool = AlignedPool(2048);
  std::unique_ptr<ShardedEveSystem> system = FreshSystem(mkb, 16, pool);

  std::atomic<bool> stop{false};
  std::atomic<bool> in_commit{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> commit_ns{0};
  std::thread writer([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const CapabilityChange change = StreamChange(i++);
      const Clock::time_point t0 = Clock::now();
      in_commit.store(true, std::memory_order_release);
      if (!system->ApplyChange(change).ok()) std::abort();
      in_commit.store(false, std::memory_order_release);
      commit_ns.fetch_add(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
      commits.fetch_add(1);
    }
  });

  std::vector<uint64_t> latencies;
  latencies.reserve(1 << 20);
  uint64_t reads_during_commit = 0;
  uint64_t epoch_floor = 0;
  for (auto _ : state) {
    const bool overlapped = in_commit.load(std::memory_order_acquire);
    const Clock::time_point t0 = Clock::now();
    const std::shared_ptr<const ShardedSnapshot> snap = system->PinPublished();
    // Read through the pin: the epoch must never run backwards.
    if (snap->epoch < epoch_floor) std::abort();
    epoch_floor = snap->epoch;
    benchmark::DoNotOptimize(snap);
    latencies.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
    if (overlapped) ++reads_during_commit;
  }
  stop.store(true);
  writer.join();

  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&latencies](double p) {
    if (latencies.empty()) return 0.0;
    const size_t idx = std::min(
        latencies.size() - 1,
        static_cast<size_t>(p * static_cast<double>(latencies.size())));
    return static_cast<double>(latencies[idx]);
  };
  state.counters["read_p50_ns"] = pct(0.50);
  state.counters["read_p99_ns"] = pct(0.99);
  state.counters["reads_during_commit"] =
      static_cast<double>(reads_during_commit);
  state.counters["commits_during_run"] =
      static_cast<double>(commits.load());
  state.counters["mean_commit_ns"] =
      commits.load() == 0
          ? 0.0
          : static_cast<double>(commit_ns.load()) /
                static_cast<double>(commits.load());
}
BENCHMARK(BM_PinnedReadDuringCommits)->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

// Million-view bulk registration (EVE_BENCH_MILLION=1): the ISSUE-target
// pool size, MKB-only versioning so version commits stay O(MKB).
void BM_MillionViewRegistration(benchmark::State& state) {
  const Mkb mkb = BenchMkb();
  ViewPoolSpec spec;
  spec.num_views = 1000000;
  spec.zipf_s = 1.1;
  spec.max_span = 1;
  spec.seed = 7;
  const std::vector<ViewDefinition> pool = MakeViewPool(mkb, spec).MoveValue();
  for (auto _ : state) {
    state.PauseTiming();
    auto system = std::make_unique<ShardedEveSystem>(mkb, CvsOptions{}, 16);
    system->SetVersioningMode(VersioningMode::kMkbOnly);
    system->SetReportUnaffected(false);
    state.ResumeTiming();
    if (!system->RegisterViewsBulk(pool).ok()) std::abort();
    if (system->NumViews() != spec.num_views) std::abort();
    state.PauseTiming();
    system.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(spec.num_views));
}

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  eve::ValidateMergedReportDeterminism();
  if (const char* million = std::getenv("EVE_BENCH_MILLION");
      million != nullptr && std::string(million) == "1") {
    ::benchmark::RegisterBenchmark("BM_MillionViewRegistration",
                                   &eve::BM_MillionViewRegistration)
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
