// refresh-data: an in-process EveSystem with a MaterializedViewStore and
// a journal attached, over base relations of 10^5 rows each. The data
// plane dominates: each capability change refreshes materialized extents
// through IncrementalRefresh (equal-path reuse for a rename, full
// recomputes for relation deletions answered by covers). One closed-loop
// writer thread; two open-loop reader threads read a view definition and
// its extent under the harness's reader/writer lock, the in-process
// counterpart of eved's console lock. The writer takes the lock
// exclusively only for the mutating calls.
//
// Every change is undone outside the timed window: ROLLBACK to the start
// version, and put back the database and the extents from copy-on-write
// copies taken before the change.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <shared_mutex>
#include <sstream>
#include <thread>

#include "algebra/eval.h"
#include "algebra/executor.h"
#include "esql/evaluator.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/materialization.h"
#include "mkb/serializer.h"
#include "remote.h"
#include "shadow.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Instance {
  std::unique_ptr<eve::Database> db;
  std::unique_ptr<eve::MaterializedViewStore> store;
  std::unique_ptr<eve::EveSystem> system;
  std::unique_ptr<eve::Journal> journal;
  uint64_t base_version = 0;
};

const char* const kViews[] = {
    // Equal path: RENAME ATTRIBUTE R2.X2_0 rewrites the filter in place.
    "CREATE VIEW vb (VE = ~) AS SELECT R2.P2 AS P2 (false, true), "
    "R2.X2_0 AS X2_0 (false, true) FROM R2 (false, true) "
    "WHERE (R2.X2_0 < 500) (false, true)",
    // Full path: DELETE RELATION R0 replaces R0.P0 by its cover on R1 and
    // drops the dispensable X0_0.
    "CREATE VIEW vf (VE = ~) AS SELECT R0.P0 AS P0 (false, true), "
    "R0.X0_0 AS X0_0 (true, true) FROM R0 (false, true)",
    // Full path: DELETE RELATION R3 replaces R3.P3 by its cover on R4; the
    // extent before the change is a 10^5 x 10^5 equi-join.
    "CREATE VIEW vc (VE = ~) AS SELECT R3.P3 AS P3 (false, true), "
    "R4.P4 AS P4 (false, true) FROM R3 (false, true), R4 (false, true) "
    "WHERE (R3.L3 = R4.L3) (true, true)",
    // Disabled by the same change: R3 is neither dispensable nor
    // replaceable here.
    "CREATE VIEW vd (VE = ~) AS SELECT R3.X3_0 AS X3_0 (false, true) "
    "FROM R3 (false, false)",
};

eve::SkewedDataSpec DataSpec(const Args& args, const std::string& relation) {
  eve::SkewedDataSpec spec;
  spec.rows = args.tiny() ? 2000 : 100'000;
  spec.value_domain = 1000;
  // One join partner per key on average: the join views stay O(rows).
  spec.join_domain = static_cast<int64_t>(spec.rows);
  spec.seed = args.seed * 1000 + std::strtoul(relation.c_str() + 1, nullptr, 10);
  return spec;
}

// The user path: MISD text and E-SQL statements, base data, initial
// materialization, journal.
bool SetUp(const Args& args, const std::string& misd, const std::string& dir,
           const eve::FunctionRegistry* registry, Instance* out,
           std::string* error) {
  eve::Result<eve::Mkb> mkb = eve::LoadMkb(misd);
  if (!mkb.ok()) {
    *error = mkb.status().ToString();
    return false;
  }
  Instance inst;
  inst.db = std::make_unique<eve::Database>();
  inst.store = std::make_unique<eve::MaterializedViewStore>(registry);
  inst.system = std::make_unique<eve::EveSystem>(mkb.MoveValue());
  for (const char* view : kViews) {
    const eve::Status status = inst.system->RegisterViewText(view);
    if (!status.ok()) {
      *error = "register: " + status.ToString();
      return false;
    }
  }
  const eve::Catalog& catalog = inst.system->mkb().catalog();
  for (const std::string& relation : catalog.RelationNames()) {
    const eve::Status status = eve::PopulateRelationSkewed(
        catalog, relation, DataSpec(args, relation), inst.db.get());
    if (!status.ok()) {
      *error = "populate " + relation + ": " + status.ToString();
      return false;
    }
  }
  inst.system->SetExecutorStrategy(eve::JoinStrategy::kAuto);
  inst.system->AttachMaterialization(inst.store.get(), inst.db.get());
  for (const std::string& name : inst.system->ViewNames()) {
    const eve::Status status = inst.store->Refresh(
        inst.system->GetView(name).value()->definition, *inst.db, catalog);
    if (!status.ok()) {
      *error = "materialize " + name + ": " + status.ToString();
      return false;
    }
  }
  RemoveTree(dir);
  MakeDirs(dir);
  eve::Result<eve::Journal> journal = eve::Journal::Open(dir + "/data.wal");
  if (!journal.ok()) {
    *error = journal.status().ToString();
    return false;
  }
  inst.journal = std::make_unique<eve::Journal>(journal.MoveValue());
  inst.system->AttachJournal(inst.journal.get());
  inst.base_version = inst.system->current_version();
  *out = std::move(inst);
  return true;
}

// Brings the instance back to the start state: the rollback restores the
// MKB and view pool; the database and the extents come back from the
// copy-on-write copies taken before the change.
bool Restore(const eve::Database& saved_db,
             const eve::MaterializedViewStore& saved_store,
             std::shared_mutex* mu, Instance* inst, std::string* error) {
  std::unique_lock<std::shared_mutex> lock(*mu);
  eve::Result<uint64_t> rolled =
      inst->system->RollbackToVersion(inst->base_version);
  if (!rolled.ok()) {
    *error = "rollback: " + rolled.status().ToString();
    return false;
  }
  *inst->db = saved_db;
  *inst->store = saved_store;
  return true;
}

eve::ExtentRelation VerdictOf(const std::string& detail) {
  for (eve::ExtentRelation r :
       {eve::ExtentRelation::kEqual, eve::ExtentRelation::kSuperset,
        eve::ExtentRelation::kSubset}) {
    if (detail.find("extent " + std::string(eve::ExtentRelationToString(r))) !=
        std::string::npos) {
      return r;
    }
  }
  return eve::ExtentRelation::kUnknown;
}

// Row count and an order-independent digest of a table's rows (extents
// have set semantics, so each row appears once).
std::pair<size_t, uint64_t> ExtentDigest(const eve::Table& table) {
  uint64_t sum = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    uint64_t h = 1469598103934665603ULL;
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      h = (h ^ table.column(c).HashRow(r)) * 1099511628211ULL;
    }
    // splitmix64 finalizer, so that the sum mixes well.
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    sum += h ^ (h >> 31);
  }
  return {table.NumRows(), sum};
}

// Per-change data-plane shadow figures (traced run).
struct DataSample {
  double apply_us = 0;
  double refresh_us = 0;
  double execute_us = 0;
  double rows_scanned = 0;
  double rows_out = 0;
  double extent_rows = 0;
};

}  // namespace

void RunRefreshData(const Args& args, RunResult* result) {
  eve::ChainMkbSpec chain;
  chain.length = 6;
  eve::Result<eve::Mkb> base_mkb = eve::MakeChainMkb(chain);
  if (!base_mkb.ok()) {
    result->Fail("generate: " + base_mkb.status().ToString());
    return;
  }
  const std::string misd = eve::SaveMkb(base_mkb.value());
  const eve::FunctionRegistry registry = eve::FunctionRegistry::Default();

  EndToEnd e2e;
  // Set-ups run in two groups, before and after the timed window, so that
  // setup_s (their median) does not follow the machine's load of a single
  // moment. The last one before the window serves.
  constexpr int kSetupsBefore = 4;
  constexpr int kSetupsAfter = 4;
  const auto set_up = [&](const std::string& dir, Instance* inst) {
    std::string error;
    const uint64_t start = NowNs();
    if (!SetUp(args, misd, dir, &registry, inst, &error)) {
      result->Fail("set-up: " + error);
      return false;
    }
    e2e.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    return true;
  };
  Instance inst;
  for (int i = 0; i < kSetupsBefore; ++i) {
    inst = Instance();  // release the previous instance before timing
    if (!set_up(args.work_dir + "/setup" + std::to_string(i), &inst)) return;
  }
  const std::string wal = args.work_dir + "/setup" +
                          std::to_string(kSetupsBefore - 1) + "/data.wal";

  std::vector<eve::CapabilityChange> block = {
      eve::CapabilityChange::RenameAttribute("R2", "X2_0", "X2_0r"),
      eve::CapabilityChange::DeleteRelation("R0"),
      eve::CapabilityChange::DeleteRelation("R3"),
  };
  std::mt19937_64 rng(args.seed);
  std::shuffle(block.begin(), block.end(), rng);

  std::shared_mutex mu;  // guards inst against the readers
  Tracer tracer(args.trace);
  ShadowCounts shadow_counts;
  std::optional<eve::Journal> scratch;
  if (args.trace) {
    eve::Result<eve::Journal> opened =
        eve::Journal::Open(args.work_dir + "/scratch.wal");
    if (opened.ok()) scratch.emplace(opened.MoveValue());
  }
  std::vector<DataSample> data_samples;
  uint64_t cartesian = 0;
  // Harness time between changes: output checks (and shadow calls) after
  // a change, then its restore.
  uint64_t check_ns = 0;
  uint64_t restore_ns = 0;
  // Refresh paths and journal appends of the timed changes only (the
  // restores refresh and journal too).
  eve::RefreshStats paths;
  uint64_t appends = 0;
  uint64_t change_appends = 0;
  inst.journal->SetObserver(
      [&appends](eve::JournalRecordKind, std::string_view) { ++appends; });
  // Nested-loop recomputes, memoized per (change, view): the data after a
  // given change is always the same, so each is computed once per run.
  std::map<std::string, std::pair<size_t, uint64_t>> oracle;
  std::string block_reports;
  bool first_block_done = false;
  uint64_t op = 0;

  // The writer thread is the only mutator, so it reads without the lock
  // and takes it exclusively only around mutating calls.
  auto run_unit = [&](const eve::CapabilityChange& change, bool measured) -> bool {
    std::string error;
    const bool shadow = args.trace && measured && scratch.has_value();
    std::map<std::string, eve::ViewDefinition> old_defs;
    std::unique_ptr<eve::MaterializedViewStore> shadow_store;
    if (shadow) {
      if (!ShadowChange(*inst.system, change, &*scratch, &tracer, op,
                        &shadow_counts, &error)) {
        result->Fail("shadow call: " + error);
        return false;
      }
      // A scratch store holding the pre-change extents, for the shadow
      // IncrementalRefresh after the change.
      shadow_store = std::make_unique<eve::MaterializedViewStore>(&registry);
      shadow_store->SetStrategy(inst.store->strategy());
      for (const std::string& name : inst.system->AffectedViews(change)) {
        const eve::ViewDefinition& def =
            inst.system->GetView(name).value()->definition;
        old_defs.emplace(name, def);
        (void)shadow_store->Refresh(def, *inst.db, inst.system->mkb().catalog());
      }
    }
    const eve::Database saved_db = *inst.db;
    const eve::MaterializedViewStore saved_store = *inst.store;
    const uint64_t cartesian_before =
        eve::GlobalExecutorCounters().cartesian_fallbacks.load();
    const uint64_t wal_before = FileSize(wal);
    const eve::RefreshStats paths_before = inst.store->AggregateStats();
    const uint64_t appends_before = appends;
    uint64_t start = 0;
    uint64_t end = 0;
    eve::Result<eve::ChangeReport> report = [&] {
      std::unique_lock<std::shared_mutex> lock(mu);
      start = NowNs();
      eve::Result<eve::ChangeReport> r = inst.system->ApplyChange(change);
      end = NowNs();
      return r;
    }();
    if (!report.ok()) {
      if (measured) {
        ++e2e.changes_attempted;
        ++e2e.changes_failed;
      }
      result->Fail("change " + change.ToString() + ": " +
                   report.status().ToString());
      return false;
    }
    cartesian += eve::GlobalExecutorCounters().cartesian_fallbacks.load() -
                 cartesian_before;
    const eve::ChangeReport& r = report.value();
    if (measured) {
      const eve::RefreshStats paths_after = inst.store->AggregateStats();
      paths.reuse_equal += paths_after.reuse_equal - paths_before.reuse_equal;
      paths.delta_superset +=
          paths_after.delta_superset - paths_before.delta_superset;
      paths.delta_subset += paths_after.delta_subset - paths_before.delta_subset;
      paths.full += paths_after.full - paths_before.full;
      change_appends += appends - appends_before;
      ++e2e.changes_attempted;
      e2e.changes.push_back({start, end});
      e2e.wal_bytes += FileSize(wal) - wal_before;
      e2e.affected_views += r.CountOutcome(eve::ViewOutcomeKind::kRewritten) +
                            r.CountOutcome(eve::ViewOutcomeKind::kDisabled);
      e2e.rewritten_views += r.CountOutcome(eve::ViewOutcomeKind::kRewritten);
      e2e.truncated_views +=
          inst.system->last_sync_diagnostics().truncated_views.size();
      if (!first_block_done) block_reports += r.ToString();
    }

    // Output check: every extent this change refreshed equals a
    // nested-loop recompute of the view over the post-change data; the
    // extent of a disabled view is dropped.
    const eve::Catalog& catalog = inst.system->mkb().catalog();
    for (const eve::ViewOutcome& outcome : r.outcomes) {
      if (outcome.kind == eve::ViewOutcomeKind::kUnaffected) continue;
      const std::string& name = outcome.view_name;
      const eve::RegisteredView& view = *inst.system->GetView(name).value();
      if (view.state != eve::ViewState::kActive) {
        if (inst.store->Has(name)) {
          result->Fail("extent of disabled view " + name + " not dropped");
        }
        continue;
      }
      eve::Result<const eve::Table*> extent = inst.store->Extent(name);
      if (!extent.ok()) {
        result->Fail("refreshed extent of " + name + " missing");
        continue;
      }
      // Self-test: an emptied copy of the extent stands in for it.
      const eve::Table corrupted(extent.value()->schema());
      const eve::Table& compared =
          args.corrupt_output && measured ? corrupted : *extent.value();
      const std::string key = change.ToString() + "|" + name;
      auto it = oracle.find(key);
      bool equal = false;
      if (it == oracle.end()) {
        eve::Result<eve::Table> expected =
            eve::EvaluateView(view.definition, *inst.db, catalog, &registry,
                              eve::JoinStrategy::kNestedLoop);
        if (!expected.ok()) {
          result->Fail("nested-loop recompute of " + name + ": " +
                       expected.status().ToString());
          continue;
        }
        // The first comparison per key is exact; later ones compare the
        // order-independent digest of the same recompute.
        equal = expected.value().SetEquals(compared);
        oracle.emplace(key, ExtentDigest(expected.value()));
      } else {
        equal = it->second == ExtentDigest(compared);
      }
      if (!equal) {
        result->Fail("extent of " + name + " after " + change.ToString() +
                     " differs from the nested-loop recompute");
        return false;
      }
    }

    if (shadow) {
      DataSample sample;
      sample.apply_us = static_cast<double>(end - start) / 1e3;
      for (const auto& [name, old_def] : old_defs) {
        const eve::RegisteredView& view = *inst.system->GetView(name).value();
        if (view.state != eve::ViewState::kActive) continue;
        std::string detail;
        for (const eve::ViewOutcome& o : r.outcomes) {
          if (o.view_name == name) detail = o.detail;
        }
        {
          ScopedSpan span(&tracer, "eve.materialization.refresh", op, -1, true);
          const uint64_t t0 = NowNs();
          (void)shadow_store->IncrementalRefresh(
              old_def, view.definition, VerdictOf(detail), *inst.db, catalog);
          sample.refresh_us += static_cast<double>(NowNs() - t0) / 1e3;
        }
        const uint64_t t0 = NowNs();
        eve::Result<eve::Table> full = [&] {
          ScopedSpan span(&tracer, "algebra.execute", op, -1, true);
          return eve::EvaluateView(view.definition, *inst.db, catalog,
                                   &registry, inst.store->strategy());
        }();
        sample.execute_us += static_cast<double>(NowNs() - t0) / 1e3;
        if (full.ok()) sample.rows_out += full.value().NumRows();
        for (const std::string& rel : view.definition.FromRelationNames()) {
          eve::Result<const eve::Table*> table =
              static_cast<const eve::Database&>(*inst.db).GetTable(rel);
          if (table.ok()) sample.rows_scanned += table.value()->NumRows();
        }
      }
      for (const std::string& name : inst.system->ViewNames()) {
        eve::Result<const eve::Table*> extent = inst.store->Extent(name);
        if (extent.ok()) sample.extent_rows += extent.value()->NumRows();
      }
      data_samples.push_back(sample);
      tracer.Add("op.change", op, -1, false, start, end);
    }
    ++op;
    const uint64_t restore_start = NowNs();
    if (!Restore(saved_db, saved_store, &mu, &inst, &error)) {
      result->Fail("restore: " + error);
      return false;
    }
    if (measured) {
      restore_ns += NowNs() - restore_start;
      check_ns += restore_start - end;
    }
    // Think time, about twice a change: the writer holds the lock a
    // bounded share of the time, so reads are not timed at the knee.
    std::this_thread::sleep_for(std::chrono::milliseconds(75));
    return true;
  };
  auto run_block = [&](bool measured) {
    for (const eve::CapabilityChange& change : block) {
      if (!run_unit(change, measured)) return false;
    }
    if (measured) first_block_done = true;
    return true;
  };

  // Warm-up block (discarded), then the timed window.
  if (!run_block(false)) return;
  const uint64_t window_start = NowNs();
  const uint64_t window_end =
      window_start + static_cast<uint64_t>(args.seconds * 1e9);
  constexpr int kReaders = 2;
  const double read_rate = 500.0;
  std::atomic<bool> stop{false};
  std::vector<ReaderSamples> samples(kReaders);
  // The in-process counterpart of SHOW VIEW: the definition and the
  // extent, under the lock the writer takes for each change and undo.
  const auto read = [&](const std::string& name) {
    std::shared_lock<std::shared_mutex> lock(mu);
    eve::Result<const eve::RegisteredView*> view = inst.system->GetView(name);
    return view.ok() && !view.value()->definition.ToString().empty() &&
           (view.value()->state != eve::ViewState::kActive ||
            inst.store->Extent(name).ok());
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    ReaderOptions options;
    options.statements = inst.system->ViewNames();
    options.seed = args.seed * 7919 + static_cast<uint64_t>(r);
    options.rate_per_s = read_rate / kReaders;
    options.start_ns = window_start + static_cast<uint64_t>(1e9 / read_rate * r);
    options.stop = &stop;
    readers.emplace_back(RunOpenLoop, options, read,
                         &samples[static_cast<size_t>(r)]);
  }
  bool ok = true;
  do {
    ok = run_block(true);
  } while (ok && NowNs() < window_end);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  if (!ok) return;
  e2e.rss_mb = PeakRssMb(0);
  for (int i = 0; i < kSetupsAfter; ++i) {
    Instance scratch_inst;
    if (!set_up(args.work_dir + "/setup_after" + std::to_string(i),
                &scratch_inst)) {
      return;
    }
  }
  e2e.read_rate_per_s = read_rate;
  e2e.read_p99_limit_us = 100'000.0;
  for (const ReaderSamples& s : samples) {
    e2e.read_us.insert(e2e.read_us.end(), s.latency_us.begin(),
                       s.latency_us.end());
    e2e.read_lateness_us.insert(e2e.read_lateness_us.end(),
                                s.lateness_us.begin(), s.lateness_us.end());
    e2e.reads_attempted += s.attempted;
    e2e.reads_failed += s.failed;
  }
  inst.journal->SetObserver(nullptr);

  // Cross-run identity for this seed: the MKB and view definitions at the
  // end of a block, the first block's reports and the outcome ratios.
  std::string views_text;
  for (const std::string& name : inst.system->ViewNames()) {
    const eve::RegisteredView& view = *inst.system->GetView(name).value();
    views_text += (view.state == eve::ViewState::kActive ? "active " : "disabled ") +
                  view.definition.ToString() + "\n";
  }
  std::ostringstream identity;
  identity << "mkb=" << HexDigest(inst.system->mkb().ToString())
           << " views=" << HexDigest(views_text)
           << " block=" << HexDigest(block_reports) << " survival="
           << static_cast<double>(e2e.rewritten_views) /
                  std::max<double>(1.0, static_cast<double>(e2e.affected_views))
           << " truncated_per_change="
           << static_cast<double>(e2e.truncated_views) /
                  std::max<double>(1.0, static_cast<double>(e2e.changes.size()));
  result->Note("identity: " + identity.str());
  CheckIdentity(args, identity.str(), result);
  const double changes =
      std::max<double>(1.0, static_cast<double>(e2e.changes.size()));
  std::ostringstream path_note;
  path_note << "refresh paths per timed change: equal "
            << static_cast<double>(paths.reuse_equal) / changes << ", superset "
            << static_cast<double>(paths.delta_superset) / changes
            << ", subset " << static_cast<double>(paths.delta_subset) / changes
            << ", full " << static_cast<double>(paths.full) / changes;
  result->Note(path_note.str());
  result->Note("harness time between changes: checks " +
               std::to_string(static_cast<double>(check_ns) / 1e9) +
               " s, restores " +
               std::to_string(static_cast<double>(restore_ns) / 1e9) + " s");
  Finish(e2e, !args.tiny(), result);
  if (!args.trace) return;

  result->metrics.clear();
  SetShadowMetrics(tracer, shadow_counts, result);
  const double n =
      std::max<double>(1.0, static_cast<double>(data_samples.size()));
  DataSample mean;
  for (const DataSample& s : data_samples) {
    mean.apply_us += s.apply_us / n;
    mean.refresh_us += s.refresh_us / n;
    mean.execute_us += s.execute_us / n;
    mean.rows_scanned += s.rows_scanned / n;
    mean.rows_out += s.rows_out / n;
    mean.extent_rows += s.extent_rows / n;
  }
  result->Set("eve.system.apply_us", mean.apply_us, "us");
  result->Set("eve.materialization.refresh_us", mean.refresh_us, "us");
  result->Set("eve.materialization.path_equal",
              static_cast<double>(paths.reuse_equal) / changes, "count");
  result->Set("eve.materialization.path_superset",
              static_cast<double>(paths.delta_superset) / changes, "count");
  result->Set("eve.materialization.path_subset",
              static_cast<double>(paths.delta_subset) / changes, "count");
  result->Set("eve.materialization.path_full",
              static_cast<double>(paths.full) / changes, "count");
  result->Set("eve.journal.appends_per_change",
              static_cast<double>(change_appends) / changes, "count");
  result->Set("cvs.truncated_views",
              static_cast<double>(e2e.truncated_views) / changes, "count");
  result->Set("algebra.execute_us", mean.execute_us, "us");
  result->Set("algebra.rows_scanned", mean.rows_scanned, "count");
  result->Set("algebra.rows_out", mean.rows_out, "count");
  result->Set("algebra.cartesian_fallbacks",
              static_cast<double>(cartesian) / static_cast<double>(op), "count");
  result->Set("storage.extent_rows", mean.extent_rows, "count");
  const std::map<std::string, double> shadow_us =
      MeanShadowUs(tracer, shadow_counts.changes);
  std::vector<std::pair<std::string, double>> rows;
  for (size_t i = 0; i < kNumApplyLayers; ++i) {
    auto it = shadow_us.find(kApplyLayers[i]);
    rows.push_back({kApplyLayers[i], it == shadow_us.end() ? 0.0 : it->second});
  }
  rows.push_back({"eve.materialization.refresh", mean.refresh_us});
  Reconcile("change (EveSystem::ApplyChange)", mean.apply_us, rows, result);
  const double span_ns = SpanCostNs();
  double real_ns = 0;
  for (const DataSample& s : data_samples) real_ns += s.apply_us * 1e3;
  result->Set("trace.overhead_pct",
              real_ns > 0 ? 100.0 * span_ns *
                                static_cast<double>(tracer.RealSpans()) / real_ns
                          : 0.0,
              "%");
  SetHarnessMetrics(e2e, result);
  NoteSpanTotals(tracer, result);
  tracer.WriteJsonLines(args.work_dir + "/trace.jsonl");
}

}  // namespace perfbench
