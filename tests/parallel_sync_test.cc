// Determinism of parallel batch synchronization: ApplyChange /
// ApplyChanges at sync parallelism 1 (the sequential reference), 4 and 8
// must produce byte-identical change reports, identical view pools, and
// byte-identical journal files. Also unit-tests the ThreadPool /
// ParallelFor primitives (this binary runs under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/file_io.h"
#include "common/thread_pool.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/sharded_system.h"
#include "eve/view_pool_io.h"
#include "mkb/capability_change.h"
#include "mkb/serializer.h"
#include "workload/generator.h"

namespace eve {
namespace {

// A system over a chain MKB with `num_views` views: even-numbered views
// sit at the chain head (and reference the victim relation R1), odd ones
// live far down the chain and stay unaffected.
EveSystem MakeBatchSystem(size_t num_views) {
  ChainMkbSpec spec;
  spec.length = 48;
  spec.skip_edges = true;
  spec.cover_distance = 2;
  const Mkb mkb = MakeChainMkb(spec).MoveValue();
  EveSystem system(mkb);
  for (size_t i = 0; i < num_views; ++i) {
    const size_t start = (i % 2 == 0) ? (i / 2) % 2 : 20 + (i / 2) % 20;
    ViewDefinition view = MakeChainView(mkb, start, 3).MoveValue();
    view.set_name("BV" + std::to_string(i));
    EXPECT_TRUE(system.RegisterView(view).ok());
  }
  return system;
}

// Flattens everything observable about a system after a change: the
// report, every view's definition, state and history.
std::string Fingerprint(const ChangeReport& report, const EveSystem& system) {
  std::string out = report.ToString();
  for (const std::string& name : system.ViewNames()) {
    const RegisteredView* view = system.GetView(name).value();
    out += "\n-- " + name +
           (view->state == ViewState::kActive ? " [active]" : " [disabled]") +
           "\n" + view->definition.ToString();
    for (const std::string& event : view->history) out += "\n# " + event;
  }
  return out;
}

TEST(ParallelSyncTest, ApplyChangeIsDeterministicAcrossThreadCounts) {
  const EveSystem base = MakeBatchSystem(24);
  const CapabilityChange change = CapabilityChange::DeleteRelation("R1");

  std::string reference_fingerprint;
  std::string reference_journal;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    EveSystem system = base;
    system.SetSyncParallelism(threads);
    const std::string journal_path = ::testing::TempDir() +
                                     "parallel_sync_apply_" +
                                     std::to_string(threads) + ".wal";
    std::remove(journal_path.c_str());
    Result<Journal> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    system.AttachJournal(&journal.value());

    const Result<ChangeReport> report = system.ApplyChange(change);
    ASSERT_TRUE(report.ok()) << "threads=" << threads;
    system.AttachJournal(nullptr);

    const std::string fingerprint = Fingerprint(report.value(), system);
    const std::string journal_bytes =
        ReadFileToString(journal_path).MoveValue();
    EXPECT_GT(report.value().CountOutcome(ViewOutcomeKind::kRewritten) +
                  report.value().CountOutcome(ViewOutcomeKind::kDisabled),
              0u);
    if (threads == 1) {
      reference_fingerprint = fingerprint;
      reference_journal = journal_bytes;
    } else {
      EXPECT_EQ(fingerprint, reference_fingerprint) << "threads=" << threads;
      EXPECT_EQ(journal_bytes, reference_journal) << "threads=" << threads;
    }
    std::remove(journal_path.c_str());
  }
}

TEST(ParallelSyncTest, ApplyChangesBatchIsDeterministicAcrossThreadCounts) {
  const EveSystem base = MakeBatchSystem(16);
  const std::vector<CapabilityChange> changes = {
      CapabilityChange::DeleteAttribute("R1", "P1"),
      CapabilityChange::DeleteRelation("R1"),
      CapabilityChange::RenameRelation("R21", "R21x"),
  };

  std::string reference;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    EveSystem system = base;
    system.SetSyncParallelism(threads);
    const Result<std::vector<ChangeReport>> reports =
        system.ApplyChanges(changes);
    ASSERT_TRUE(reports.ok()) << "threads=" << threads;
    std::string fingerprint;
    for (const ChangeReport& report : reports.value()) {
      fingerprint += Fingerprint(report, system) + "\n====\n";
    }
    if (threads == 1) {
      reference = fingerprint;
    } else {
      EXPECT_EQ(fingerprint, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelSyncTest, TopKAndBudgetAreDeterministicAcrossThreadCounts) {
  // The top-k / candidate-budget knobs narrow each view's private
  // enumeration; they must not perturb determinism — reports, pools and
  // the aggregated enumeration stats stay byte-identical at any
  // parallelism.
  const CapabilityChange change = CapabilityChange::DeleteRelation("R1");
  std::string reference_fingerprint;
  std::string reference_stats;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    EveSystem system = MakeBatchSystem(24);
    system.SetSyncTopK(2);
    system.SetSyncCandidateBudget(16);
    system.SetSyncParallelism(threads);
    const Result<ChangeReport> report = system.ApplyChange(change);
    ASSERT_TRUE(report.ok()) << "threads=" << threads;
    const std::string fingerprint = Fingerprint(report.value(), system);
    const std::string stats = system.last_sync_stats().ToString();
    if (threads == 1) {
      reference_fingerprint = fingerprint;
      reference_stats = stats;
    } else {
      EXPECT_EQ(fingerprint, reference_fingerprint) << "threads=" << threads;
      EXPECT_EQ(stats, reference_stats) << "threads=" << threads;
    }
  }
}

TEST(ParallelSyncTest, WorkBudgetPartialsAreDeterministicAcrossThreadCounts) {
  // A tight per-view logical work budget stops every view's search on the
  // same enumeration step regardless of which thread runs it, so the
  // partial results — reports, pools, aggregated stats, diagnostics AND
  // journal bytes — must be byte-identical across parallelism.
  const CapabilityChange change = CapabilityChange::DeleteRelation("R1");
  std::string reference_fingerprint;
  std::string reference_stats;
  std::string reference_diagnostics;
  std::string reference_journal;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    // The chain views' searches are tiny (one frontier expansion + one
    // emission each), so budget 1 is the tight setting that actually
    // deadline-stops them.
    EveSystem system = MakeBatchSystem(24);
    system.SetSyncWorkBudget(1);
    system.SetSyncParallelism(threads);
    const std::string journal_path = ::testing::TempDir() +
                                     "parallel_sync_budget_" +
                                     std::to_string(threads) + ".wal";
    std::remove(journal_path.c_str());
    Result<Journal> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    system.AttachJournal(&journal.value());
    const Result<ChangeReport> report = system.ApplyChange(change);
    ASSERT_TRUE(report.ok()) << "threads=" << threads;
    system.AttachJournal(nullptr);

    // The budget is tight enough to stop at least one view's search.
    EXPECT_FALSE(system.last_sync_diagnostics().deadline_views.empty());
    EXPECT_TRUE(system.last_sync_stats().deadline.partial);
    EXPECT_EQ(system.last_sync_stats().deadline.stop_cause,
              StopCause::kWorkBudget);

    const std::string fingerprint = Fingerprint(report.value(), system);
    const std::string stats = system.last_sync_stats().ToString();
    const std::string diagnostics = system.last_sync_diagnostics().ToString();
    const std::string journal_bytes =
        ReadFileToString(journal_path).MoveValue();
    if (threads == 1) {
      reference_fingerprint = fingerprint;
      reference_stats = stats;
      reference_diagnostics = diagnostics;
      reference_journal = journal_bytes;
    } else {
      EXPECT_EQ(fingerprint, reference_fingerprint) << "threads=" << threads;
      EXPECT_EQ(stats, reference_stats) << "threads=" << threads;
      EXPECT_EQ(diagnostics, reference_diagnostics) << "threads=" << threads;
      EXPECT_EQ(journal_bytes, reference_journal) << "threads=" << threads;
    }
    std::remove(journal_path.c_str());
  }
}

TEST(ParallelSyncTest, DryRunThenCommitMatchesDirectCommitAcrossThreadCounts) {
  // The prepare/commit split must be invisible: rehearsing a change with
  // SYNC DRYRUN and then committing it produces byte-identical reports,
  // view pools and journal files to committing it directly — at every
  // sync parallelism.
  const EveSystem base = MakeBatchSystem(24);
  const CapabilityChange change = CapabilityChange::DeleteRelation("R1");

  std::string reference_fingerprint;
  std::string reference_journal;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    // Direct commit.
    EveSystem direct = base;
    direct.SetSyncParallelism(threads);
    const std::string direct_path = ::testing::TempDir() +
                                    "parallel_sync_direct_" +
                                    std::to_string(threads) + ".wal";
    std::remove(direct_path.c_str());
    Result<Journal> direct_journal = Journal::Open(direct_path);
    ASSERT_TRUE(direct_journal.ok());
    direct.AttachJournal(&direct_journal.value());
    const Result<ChangeReport> direct_report = direct.ApplyChange(change);
    ASSERT_TRUE(direct_report.ok()) << "threads=" << threads;
    direct.AttachJournal(nullptr);

    // Dry-run first, then commit.
    EveSystem rehearsed = base;
    rehearsed.SetSyncParallelism(threads);
    const std::string rehearsed_path = ::testing::TempDir() +
                                       "parallel_sync_rehearsed_" +
                                       std::to_string(threads) + ".wal";
    std::remove(rehearsed_path.c_str());
    Result<Journal> rehearsed_journal = Journal::Open(rehearsed_path);
    ASSERT_TRUE(rehearsed_journal.ok());
    rehearsed.AttachJournal(&rehearsed_journal.value());
    const Result<DryRunReport> dry = rehearsed.DryRunChange(change);
    ASSERT_TRUE(dry.ok()) << "threads=" << threads;
    const Result<ChangeReport> committed = rehearsed.ApplyChange(change);
    ASSERT_TRUE(committed.ok()) << "threads=" << threads;
    rehearsed.AttachJournal(nullptr);

    // The dry-run predicted the commit exactly...
    EXPECT_EQ(dry.value().report.ToString(), committed.value().ToString())
        << "threads=" << threads;
    // ...and left no trace: fingerprints and journal bytes match the
    // direct run.
    EXPECT_EQ(Fingerprint(committed.value(), rehearsed),
              Fingerprint(direct_report.value(), direct))
        << "threads=" << threads;
    const std::string direct_bytes = ReadFileToString(direct_path).MoveValue();
    const std::string rehearsed_bytes =
        ReadFileToString(rehearsed_path).MoveValue();
    EXPECT_EQ(rehearsed_bytes, direct_bytes) << "threads=" << threads;

    if (threads == 1) {
      reference_fingerprint = Fingerprint(direct_report.value(), direct);
      reference_journal = direct_bytes;
    } else {
      EXPECT_EQ(Fingerprint(direct_report.value(), direct),
                reference_fingerprint)
          << "threads=" << threads;
      EXPECT_EQ(direct_bytes, reference_journal) << "threads=" << threads;
    }
    std::remove(direct_path.c_str());
    std::remove(rehearsed_path.c_str());
  }
}

TEST(ParallelSyncTest, PinnedReadersObserveOnlyWholeVersionsDuringCommits) {
  // Concurrent readers pin the tip while commits swap it: every pin must
  // land on exactly one committed version — the pinned MKB renders byte-
  // identically to that version's clean render, never a torn in-between.
  const std::vector<CapabilityChange> changes = {
      CapabilityChange::DeleteAttribute("R1", "P1"),
      CapabilityChange::DeleteRelation("R1"),
      CapabilityChange::RenameRelation("R21", "R21x"),
      CapabilityChange::RenameRelation("R30", "R30x"),
      CapabilityChange::DeleteRelation("R40"),
  };
  // Clean sequential run records the only legal render per version id.
  std::map<uint64_t, std::string> legal;
  {
    EveSystem clean = MakeBatchSystem(24);
    legal[clean.current_version()] = SaveMkb(clean.mkb());
    for (const CapabilityChange& change : changes) {
      ASSERT_TRUE(clean.ApplyChange(change).ok());
      legal[clean.current_version()] = SaveMkb(clean.mkb());
    }
  }

  EveSystem system = MakeBatchSystem(24);
  system.SetSyncParallelism(8);
  std::atomic<bool> stop{false};
  std::atomic<size_t> pins_checked{0};
  std::atomic<size_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const PinnedMkb pinned = system.PinTip();
        const auto it = legal.find(pinned.id());
        if (it == legal.end() || SaveMkb(*pinned.mkb) != it->second) {
          torn.fetch_add(1);
        }
        pins_checked.fetch_add(1);
      }
    });
  }
  for (const CapabilityChange& change : changes) {
    ASSERT_TRUE(system.ApplyChange(change).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn.load(), 0u)
      << "a reader pinned a state that is not a whole committed version";
  EXPECT_GT(pins_checked.load(), 0u);
  // The writer's final tip agrees with the clean run.
  EXPECT_EQ(SaveMkb(system.mkb()), legal.at(system.current_version()));
}

TEST(ParallelSyncTest, PreviewChangeSharesThePoolSafely) {
  EveSystem system = MakeBatchSystem(12);
  system.SetSyncParallelism(4);
  const CapabilityChange change = CapabilityChange::DeleteRelation("R1");
  // Previews run on scratch copies sharing the same pool; interleave a few
  // with a real apply to exercise concurrent ParallelFor invocations.
  const Result<ChangeReport> preview = system.PreviewChange(change);
  ASSERT_TRUE(preview.ok());
  const Result<ChangeReport> applied = system.ApplyChange(change);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(preview.value().ToString(), applied.value().ToString());
}

// The sharded serving core must keep the determinism contract at every
// (shard count × sync parallelism) point: the same queued change stream
// produces byte-identical per-shard state and byte-identical merged
// reports.
ShardedEveSystem MakeShardedBatchSystem(size_t num_views, size_t shards) {
  ChainMkbSpec spec;
  spec.length = 48;
  spec.skip_edges = true;
  spec.cover_distance = 2;
  const Mkb mkb = MakeChainMkb(spec).MoveValue();
  ShardedEveSystem system(mkb, {}, shards);
  for (size_t i = 0; i < num_views; ++i) {
    const size_t start = (i % 2 == 0) ? (i / 2) % 2 : 20 + (i / 2) % 20;
    ViewDefinition view = MakeChainView(mkb, start, 3).MoveValue();
    view.set_name("BV" + std::to_string(i));
    EXPECT_TRUE(system.RegisterView(view).ok());
  }
  return system;
}

// Everything durable about each shard, concatenated in shard order.
std::string ShardState(const ShardedEveSystem& system) {
  std::string out;
  for (size_t s = 0; s < system.shard_count(); ++s) {
    out += "== shard " + std::to_string(s) + "\n" +
           SaveMkb(system.shard(s).mkb()) + SaveViews(system.shard(s));
  }
  return out;
}

TEST(ParallelSyncTest, ShardedDrainIsDeterministicAcrossShardsAndThreads) {
  const std::vector<CapabilityChange> stream = {
      CapabilityChange::DeleteAttribute("R1", "P1"),
      CapabilityChange::DeleteRelation("R1"),
      CapabilityChange::RenameRelation("R21", "R21x"),
      CapabilityChange::DeleteRelation("R30"),
  };

  std::string reference_reports;  // merged reports: shard-count invariant
  std::map<size_t, std::string> reference_shards;  // per-shard, per count
  for (const size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ShardedEveSystem system = MakeShardedBatchSystem(24, shards);
      system.SetSyncParallelism(threads);
      for (const CapabilityChange& change : stream) {
        ASSERT_TRUE(system.EnqueueChange(change).ok());
      }
      const Result<std::vector<ChangeReport>> reports =
          system.DrainSyncQueue();
      ASSERT_TRUE(reports.ok()) << reports.status();
      ASSERT_EQ(reports.value().size(), stream.size());
      EXPECT_EQ(system.queued_changes(), 0u);

      std::string merged;
      for (const ChangeReport& report : reports.value()) {
        merged += report.ToString() + "\n====\n";
      }
      if (reference_reports.empty()) {
        reference_reports = merged;
      } else {
        EXPECT_EQ(merged, reference_reports);
      }
      const std::string per_shard = ShardState(system);
      const auto it = reference_shards.find(shards);
      if (it == reference_shards.end()) {
        reference_shards[shards] = per_shard;
      } else {
        EXPECT_EQ(per_shard, it->second);
      }
    }
  }
}

TEST(ParallelSyncTest, ShardedDrainStopsAtTheFailingChange) {
  // A mid-stream prepare failure (unknown relation) stops the drain at
  // that change: the change before it stays applied, the failing one is
  // consumed, and the one after it is still queued.
  const std::vector<CapabilityChange> stream = {
      CapabilityChange::DeleteRelation("R1"),
      CapabilityChange::DeleteRelation("NoSuchRelation"),
      CapabilityChange::DeleteRelation("R30"),
  };
  ShardedEveSystem system = MakeShardedBatchSystem(24, 4);
  for (const CapabilityChange& change : stream) {
    ASSERT_TRUE(system.EnqueueChange(change).ok());
  }
  const Result<std::vector<ChangeReport>> reports = system.DrainSyncQueue();
  ASSERT_FALSE(reports.ok());
  EXPECT_FALSE(system.poisoned());  // prepare failures abort cleanly
  EXPECT_EQ(system.queued_changes(), 1u);  // R30 still waiting
  EXPECT_EQ(system.admission_stats().completed, 2u);
  EXPECT_EQ(system.admission_stats().failed, 1u);

  ShardedEveSystem expected = MakeShardedBatchSystem(24, 4);
  ASSERT_TRUE(
      expected.ApplyChange(CapabilityChange::DeleteRelation("R1")).ok());
  EXPECT_EQ(ShardState(system), ShardState(expected));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(&pool, n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForWorksWithoutAPool) {
  std::atomic<size_t> sum{0};
  ParallelFor(nullptr, 100, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsOnOnePool) {
  ThreadPool pool(4);
  ThreadPool callers(3);
  std::atomic<size_t> total{0};
  ParallelFor(&callers, 3, [&](size_t) {
    std::atomic<size_t> local{0};
    ParallelFor(&pool, 200, [&](size_t i) { local.fetch_add(i + 1); });
    total.fetch_add(local.load());
  });
  // Each caller sums 1..200 = 20100.
  EXPECT_EQ(total.load(), 3u * 20100u);
}

}  // namespace
}  // namespace eve
