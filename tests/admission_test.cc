// The deadline/cancellation/admission layer: DeadlineToken semantics
// (deterministic work budgets, virtual-clock deadlines, the parent→child
// cancellation tree), hardened ThreadPool shutdown, FederationMonitor
// probe budgeting, and admission control — the serving core's bounded
// queue with explicit shedding, per-change deadlines, watchdog
// cancellation, and the cover-fan partial-result acceptance scenario at
// sync parallelism {1, 4, 8}. This binary runs under TSan and ASan/UBSan
// in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "cvs/cvs.h"
#include "esql/view_definition.h"
#include "eve/eve_system.h"
#include "eve/sharded_system.h"
#include "federation/monitor.h"
#include "federation/transport.h"
#include "mkb/capability_change.h"
#include "mkb/evolution.h"
#include "workload/generator.h"

namespace eve {
namespace {

// --- DeadlineToken ----------------------------------------------------------

TEST(DeadlineTokenTest, WorkBudgetAdmitsExactlyBudgetSteps) {
  const DeadlineToken token = DeadlineToken::Root({3, 0});
  EXPECT_TRUE(token.valid());
  EXPECT_TRUE(token.Spend(1));
  EXPECT_TRUE(token.Spend(1));
  EXPECT_TRUE(token.Spend(1));
  // The fourth unit is refused BEFORE it runs: performed work never
  // exceeds the budget.
  EXPECT_FALSE(token.Spend(1));
  EXPECT_TRUE(token.Expired());
  EXPECT_EQ(token.cause(), StopCause::kWorkBudget);
  // The cause is sticky: later checks fail fast.
  EXPECT_FALSE(token.Spend(1));
}

TEST(DeadlineTokenTest, ManualClockDrivesTheDeadline) {
  ManualClock clock;
  clock.Set(50);
  const DeadlineToken token = DeadlineToken::Root({0, 100}, &clock);
  EXPECT_TRUE(token.Spend(1));
  EXPECT_FALSE(token.Expired());
  clock.Advance(49);  // now 99 — still before the deadline
  EXPECT_TRUE(token.Spend(1));
  clock.Advance(1);  // now 100 — at the deadline
  EXPECT_FALSE(token.Spend(1));
  EXPECT_EQ(token.cause(), StopCause::kDeadline);
}

TEST(DeadlineTokenTest, BudgetCauseWinsWhenBothLimitsAreExceeded) {
  // The work budget is the deterministic limit, so it must be recorded as
  // the cause even when the wall deadline has also passed — a run with
  // both knobs set and a run with only the budget agree on diagnostics.
  ManualClock clock;
  clock.Set(1000);  // already past the deadline below
  const DeadlineToken token = DeadlineToken::Root({1, 500}, &clock);
  EXPECT_FALSE(token.Spend(2));
  EXPECT_EQ(token.cause(), StopCause::kWorkBudget);
}

TEST(DeadlineTokenTest, CancellingTheRootStopsEveryDescendant) {
  const DeadlineToken root = DeadlineToken::Root({0, 0});
  const DeadlineToken child = root.Child({0, 0});
  const DeadlineToken grandchild = child.Child({0, 0});
  EXPECT_TRUE(grandchild.Spend(1));
  root.Cancel();
  EXPECT_FALSE(grandchild.Spend(1));
  EXPECT_FALSE(child.Spend(1));
  EXPECT_EQ(grandchild.cause(), StopCause::kCancelled);
  EXPECT_TRUE(root.Expired());
}

TEST(DeadlineTokenTest, CancellingAChildLeavesTheParentRunning) {
  const DeadlineToken root = DeadlineToken::Root({0, 0});
  const DeadlineToken child = root.Child({0, 0});
  child.Cancel();
  EXPECT_FALSE(child.Spend(1));
  EXPECT_TRUE(root.Spend(1));
  EXPECT_FALSE(root.Expired());
}

TEST(DeadlineTokenTest, ChildBudgetsAreIndependentOfTheParent) {
  const DeadlineToken root = DeadlineToken::Root({0, 0});
  const DeadlineToken a = root.Child({2, 0});
  const DeadlineToken b = root.Child({2, 0});
  EXPECT_TRUE(a.Spend(2));
  EXPECT_FALSE(a.Spend(1));
  // Sibling b has its own budget; a's exhaustion does not leak.
  EXPECT_TRUE(b.Spend(2));
  EXPECT_TRUE(root.Spend(1));
}

TEST(DeadlineTokenTest, DefaultTokenIsFree) {
  const DeadlineToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_TRUE(token.Spend(1000000));
  EXPECT_FALSE(token.Expired());
  EXPECT_EQ(token.cause(), StopCause::kNone);
  EXPECT_TRUE(token.ToStatus("sync").ok());
}

TEST(DeadlineTokenTest, ToStatusReportsResourceExhausted) {
  const DeadlineToken token = DeadlineToken::Root({1, 0});
  EXPECT_TRUE(token.ToStatus("sync").ok());  // not yet expired
  EXPECT_FALSE(token.Spend(2));
  const Status status = token.ToStatus("per-view sync");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("work-budget"), std::string::npos);
}

// --- ThreadPool shutdown semantics -----------------------------------------

TEST(ThreadPoolShutdownTest, DiscardShutdownCountsUnstartedTasks) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  // Occupy the single worker so the next three tasks stay queued; wait
  // until it is actually running so the discard below cannot claim it.
  pool.Submit([&] {
    started.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    ran.fetch_add(1);
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&] { ran.fetch_add(1); }, "queued");
  }
  // Discard from another thread (Shutdown joins, and the running task is
  // still blocked). Wait until the queue has been cleared before releasing
  // the latch — otherwise the freed worker could race Shutdown to a queued
  // task — then unblock; the three queued tasks must be dropped and counted.
  size_t discarded = 0;
  std::thread shutter([&] { discarded = pool.Shutdown(/*drain=*/false); });
  while (pool.discarded_tasks() < 3) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  shutter.join();
  EXPECT_EQ(discarded, 3u);
  EXPECT_EQ(pool.discarded_tasks(), 3u);
  EXPECT_EQ(ran.load(), 1);  // only the running task completed
  // Idempotent: the second call has nothing left to discard.
  EXPECT_EQ(pool.Shutdown(false), 0u);
}

TEST(ThreadPoolShutdownTest, DrainShutdownRunsEveryQueuedTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] { ran.fetch_add(1); }, "drained");
  }
  EXPECT_EQ(pool.Shutdown(/*drain=*/true), 0u);
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(pool.discarded_tasks(), 0u);
}

TEST(ThreadPoolShutdownTest, SubmitAfterShutdownIsCountedNotSilentlyDropped) {
  ThreadPool pool(1);
  pool.Shutdown(true);
  pool.Submit([] {}, "late");
  EXPECT_EQ(pool.discarded_tasks(), 1u);
}

TEST(ThreadPoolDeathTest, EscapedExceptionReportsTaskProvenance) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A task that lets an exception escape must terminate the process —
  // but only after naming the task and the exception on stderr, so the
  // crash is attributable.
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Submit([] { throw std::runtime_error("boom"); },
                    "exploding-task");
        pool.Shutdown(true);
      },
      "exploding-task.*boom");
}

// --- FederationMonitor probe budgeting -------------------------------------

TEST(MonitorDeadlineTest, ProbeFanOutIsBudgetedDeterministically) {
  ChainMkbSpec spec;
  spec.length = 5;
  EveSystem system(MakeChainMkb(spec).MoveValue());
  federation::SimulatedTransport transport;
  federation::FederationMonitor monitor(&system, &transport);
  ASSERT_TRUE(monitor.TrackSources().ok());
  ASSERT_EQ(system.source_membership().size(), 5u);

  // Budget three probe units: at the first due tick all five sources are
  // due; the first three (name order, decided on the calling thread before
  // the fan-out) probe, the last two are skipped and stay due.
  monitor.SetDeadlineToken(DeadlineToken::Root({3, 0}));
  ASSERT_TRUE(monitor.AdvanceTo(10).ok());  // default probe cadence is 10
  EXPECT_EQ(monitor.stats().probes, 3u);
  EXPECT_EQ(monitor.stats().probes_skipped, 2u);

  // The token is sticky: every later due probe is skipped, none run.
  ASSERT_TRUE(monitor.AdvanceTo(25).ok());
  EXPECT_EQ(monitor.stats().probes, 3u);
  EXPECT_GT(monitor.stats().probes_skipped, 2u);

  // A fresh unlimited token lifts the limit again.
  monitor.SetDeadlineToken(DeadlineToken());
  const uint64_t skipped = monitor.stats().probes_skipped;
  ASSERT_TRUE(monitor.AdvanceTo(40).ok());
  EXPECT_GT(monitor.stats().probes, 3u);
  EXPECT_EQ(monitor.stats().probes_skipped, skipped);
}

// A token whose budget can never fire must not change the answer: on the
// cover-fan search at 8 and 16 covers, the tokened run returns the
// token-free run's rewritings byte for byte and is not marked partial.
TEST(DeadlineTokenTest, NonFiringTokenLeavesTheRewritingsUnchanged) {
  for (const size_t covers : {8u, 16u}) {
    SCOPED_TRACE("covers " + std::to_string(covers));
    CoverFanMkbSpec spec;
    spec.num_covers = covers;
    const Mkb mkb = MakeCoverFanMkb(spec).MoveValue();
    const ViewDefinition view = MakeCoverFanView(mkb).MoveValue();
    const Mkb mkb_prime =
        EvolveMkb(mkb, CapabilityChange::DeleteRelation("R0")).MoveValue().mkb;
    CvsOptions options;
    options.replacement.max_results = 1000000;
    options.replacement.max_cover_combinations = 1000000;
    options.replacement.max_extra_relations = covers;
    const CvsResult bare =
        SynchronizeDeleteRelation(view, "R0", SyncContext{mkb, mkb_prime},
                                  options)
            .value();
    options.replacement.token = DeadlineToken::Root({1ull << 60, 0});
    const CvsResult tokened =
        SynchronizeDeleteRelation(view, "R0", SyncContext{mkb, mkb_prime},
                                  options)
            .value();
    EXPECT_FALSE(tokened.enumeration.deadline.partial);
    ASSERT_EQ(tokened.rewritings.size(), bare.rewritings.size());
    for (size_t i = 0; i < bare.rewritings.size(); ++i) {
      EXPECT_EQ(tokened.rewritings[i].view.ToString(),
                bare.rewritings[i].view.ToString())
          << "rank " << i;
    }
  }
}

// --- Admission control (the serving core's queue) ----------------------------

// Chain workload matching parallel_sync_test's batch workload: deleting R1
// affects the even-numbered views.
Mkb MakeAdmissionMkb() {
  ChainMkbSpec spec;
  spec.length = 24;
  spec.skip_edges = true;
  spec.cover_distance = 2;
  return MakeChainMkb(spec).MoveValue();
}

template <class System>
void RegisterChainViews(const Mkb& mkb, size_t num_views, System* system) {
  for (size_t i = 0; i < num_views; ++i) {
    const size_t start = (i % 2 == 0) ? (i / 2) % 2 : 10 + (i / 2) % 10;
    ViewDefinition view = MakeChainView(mkb, start, 3).MoveValue();
    view.set_name("BV" + std::to_string(i));
    EXPECT_TRUE(system->RegisterView(view).ok());
  }
}

EveSystem MakeChainSystem(size_t num_views) {
  const Mkb mkb = MakeAdmissionMkb();
  EveSystem system(mkb);
  RegisterChainViews(mkb, num_views, &system);
  return system;
}

// The serving core, which owns the admission queue; eved runs 1 shard.
ShardedEveSystem MakeServingCore(size_t num_views, size_t shards = 1) {
  const Mkb mkb = MakeAdmissionMkb();
  ShardedEveSystem system(mkb, {}, shards);
  RegisterChainViews(mkb, num_views, &system);
  return system;
}

void ExpectAdmissionInvariant(const ShardedEveSystem& system) {
  const AdmissionStats& stats = system.admission_stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.queued_now)
      << stats.ToString();
}

TEST(AdmissionTest, FullQueueShedsTheNewestSubmissionExplicitly) {
  ShardedEveSystem system = MakeServingCore(4);
  system.SetSyncQueueLimit(2);
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R1")).ok());
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteAttribute("R10", "P10"))
          .ok());
  const Status shed =
      system.EnqueueChange(CapabilityChange::DeleteRelation("R20"));
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(system.queued_changes(), 2u);
  EXPECT_EQ(system.admission_stats().shed, 1u);
  ExpectAdmissionInvariant(system);

  const Result<std::vector<ChangeReport>> reports = system.DrainSyncQueue();
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value().size(), 2u);
  EXPECT_EQ(system.queued_changes(), 0u);
  EXPECT_EQ(system.admission_stats().completed, 2u);
  EXPECT_EQ(system.admission_stats().failed, 0u);
  ExpectAdmissionInvariant(system);

  // Capacity freed: new submissions are admitted again.
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R20")).ok());
  ExpectAdmissionInvariant(system);
}

// Overload cycles as eved meets them: six changes submitted against a
// queue of 2, 4 or 6 under a per-view work budget of 200. The excess is
// shed explicitly and everything admitted drains without error.
TEST(AdmissionTest, OverloadCyclesShedTheExcessAndDrainTheRest) {
  const std::vector<CapabilityChange> batch = {
      CapabilityChange::DeleteRelation("R1"),
      CapabilityChange::DeleteAttribute("R10", "P10"),
      CapabilityChange::DeleteRelation("R20"),
      CapabilityChange::DeleteAttribute("R12", "P12"),
      CapabilityChange::DeleteRelation("R5"),
      CapabilityChange::DeleteAttribute("R15", "P15"),
  };
  for (const size_t limit : {2u, 4u, 6u}) {
    SCOPED_TRACE("queue limit " + std::to_string(limit));
    ShardedEveSystem system = MakeServingCore(8);
    system.SetSyncQueueLimit(limit);
    system.shard(0).SetSyncWorkBudget(200);
    for (const CapabilityChange& change : batch) {
      (void)system.EnqueueChange(change);  // overflow sheds explicitly
    }
    const Result<std::vector<ChangeReport>> reports = system.DrainSyncQueue();
    ASSERT_TRUE(reports.ok()) << reports.status();
    EXPECT_EQ(reports.value().size(), limit);
    EXPECT_EQ(system.admission_stats().shed, batch.size() - limit);
    EXPECT_EQ(system.admission_stats().completed, limit);
    ExpectAdmissionInvariant(system);
  }
}

TEST(AdmissionTest, DrainStopsAtAFailingChangeAndKeepsTheRemainder) {
  ShardedEveSystem system = MakeServingCore(4);
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("NoSuchRelation"))
          .ok());
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R1")).ok());
  const Result<std::vector<ChangeReport>> first = system.DrainSyncQueue();
  EXPECT_FALSE(first.ok());
  // The failing change was consumed (completed + failed); the survivor is
  // still queued.
  EXPECT_EQ(system.admission_stats().failed, 1u);
  EXPECT_EQ(system.queued_changes(), 1u);
  ExpectAdmissionInvariant(system);

  const Result<std::vector<ChangeReport>> second = system.DrainSyncQueue();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().size(), 1u);
  EXPECT_EQ(system.queued_changes(), 0u);
  ExpectAdmissionInvariant(system);
}

// The acceptance workload: a cover-fan view whose rewriting search fans
// over 8 covers at increasing join distance (expensive), next to an anchor
// view whose only replaceable attribute is covered at distance zero
// (cheap). Both reference the victim R0.
EveSystem MakeFanSystem() {
  CoverFanMkbSpec spec;
  spec.num_covers = 8;
  const Mkb mkb = MakeCoverFanMkb(spec).MoveValue();
  EveSystem system(mkb);
  ViewDefinition fan = MakeCoverFanView(mkb).MoveValue();
  fan.set_name("fan_view");
  EXPECT_TRUE(system.RegisterView(fan).ok());

  std::vector<ViewSelectItem> select;
  select.push_back(ViewSelectItem{Expr::Column(AttributeRef{"A0", "PA"}),
                                  "PA", EvolutionParams{false, true}});
  std::vector<ViewRelation> from{
      ViewRelation{"R0", EvolutionParams{false, true}},
      ViewRelation{"A0", EvolutionParams{false, true}}};
  std::vector<ViewCondition> where{
      ViewCondition{Expr::ColumnsEqual(AttributeRef{"R0", "L0"},
                                       AttributeRef{"A0", "L0"}),
                    EvolutionParams{false, true}}};
  const ViewDefinition cheap("anchor_view", ViewExtent::kAny,
                             std::move(select), std::move(from),
                             std::move(where));
  EXPECT_TRUE(system.RegisterView(cheap).ok());
  return system;
}

TEST(AdmissionTest, TightBudgetYieldsPartialFanCompleteAnchorAtAnyParallelism) {
  // First establish the unbudgeted reference: both views rewrite, nothing
  // is deadline-stopped.
  const CapabilityChange change = CapabilityChange::DeleteRelation("R0");
  std::string unbudgeted_fingerprint;
  {
    EveSystem system = MakeFanSystem();
    const Result<ChangeReport> report = system.ApplyChange(change);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().CountOutcome(ViewOutcomeKind::kRewritten), 2u);
    EXPECT_TRUE(system.last_sync_diagnostics().deadline_views.empty());
    unbudgeted_fingerprint = report.value().ToString();
  }

  std::string reference_report;
  std::string reference_stats;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    EveSystem system = MakeFanSystem();
    system.SetSyncWorkBudget(40);
    system.SetSyncParallelism(threads);
    const Result<ChangeReport> report = system.ApplyChange(change);
    ASSERT_TRUE(report.ok()) << "threads=" << threads;

    // The fan view ran out of budget and returned a partial (best-prefix)
    // result; the anchor view completed inside the same budget.
    const SyncDiagnostics& diagnostics = system.last_sync_diagnostics();
    EXPECT_EQ(diagnostics.deadline_views,
              std::vector<std::string>{"fan_view"})
        << "threads=" << threads;
    EXPECT_TRUE(system.last_sync_stats().deadline.partial);
    EXPECT_EQ(system.last_sync_stats().deadline.stop_cause,
              StopCause::kWorkBudget);
    // Both views still end up rewritten: the budgeted prefix contains the
    // best candidate.
    EXPECT_EQ(report.value().CountOutcome(ViewOutcomeKind::kRewritten), 2u);

    const std::string fingerprint = report.value().ToString();
    const std::string stats = system.last_sync_stats().ToString();
    if (threads == 1) {
      reference_report = fingerprint;
      reference_stats = stats;
    } else {
      EXPECT_EQ(fingerprint, reference_report) << "threads=" << threads;
      EXPECT_EQ(stats, reference_stats) << "threads=" << threads;
    }
  }
  // The budgeted runs are real partials, not the unbudgeted answer in
  // disguise (the fan view's chosen rewriting may still coincide; the
  // stats prove the search was cut).
  EXPECT_FALSE(reference_stats.empty());
}

// A clock stuck at time zero that sleeps on every read: the cooperative
// wall deadline never passes, and each safe-point check yields the CPU
// long enough that a pending watchdog is guaranteed to get scheduled
// while the sync is still running.
class StallClock : public Clock {
 public:
  uint64_t NowMicros() const override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return 0;
  }
};

TEST(AdmissionTest, WatchdogCancelsAnOverrunningSync) {
  // The stalled virtual clock disables the cooperative deadline; the
  // real-time watchdog is the only thing that can stop the search. With a
  // 1us timeout it always beats the (slowed) fan enumeration.
  StallClock clock;
  EveSystem system = MakeFanSystem();
  system.SetClockForTesting(&clock);
  system.SetSyncDeadlineMicros(1000000);
  system.SetSyncWatchdogMicros(1);
  const Result<ChangeReport> report =
      system.ApplyChange(CapabilityChange::DeleteRelation("R0"));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(system.last_sync_diagnostics().watchdog_cancels, 1u);
  // If the cancel landed before the searches finished, the stop cause is
  // kCancelled — never a spurious budget/deadline cause.
  if (!system.last_sync_diagnostics().deadline_views.empty()) {
    EXPECT_EQ(system.last_sync_stats().deadline.stop_cause,
              StopCause::kCancelled);
  }
}

TEST(AdmissionTest, CancelActiveSyncIsSafeWhenIdle) {
  EveSystem system = MakeFanSystem();
  system.CancelActiveSync();  // no active sync: must be a no-op
  const Result<ChangeReport> report =
      system.ApplyChange(CapabilityChange::DeleteRelation("R0"));
  EXPECT_TRUE(report.ok());
}

// --- Failpoints at the admission/cancellation safe points -------------------

class AdmissionFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().Reset(); }
};

TEST_F(AdmissionFailpointTest, InjectedEnqueueFaultIsCountedAsShed) {
  ShardedEveSystem system = MakeServingCore(2);
  Failpoints::Instance().Arm(fp::kAdmissionEnqueue, FailpointAction::kError);
  const Status status =
      system.EnqueueChange(CapabilityChange::DeleteRelation("R1"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(system.admission_stats().shed, 1u);
  EXPECT_EQ(system.queued_changes(), 0u);
  ExpectAdmissionInvariant(system);
  // The site auto-disarms: the retry is admitted.
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R1")).ok());
  ExpectAdmissionInvariant(system);
}

TEST_F(AdmissionFailpointTest, InjectedDrainFaultLeavesTheQueueIntact) {
  ShardedEveSystem system = MakeServingCore(2);
  ASSERT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R1")).ok());
  Failpoints::Instance().Arm(fp::kAdmissionDrain, FailpointAction::kError);
  EXPECT_FALSE(system.DrainSyncQueue().ok());
  EXPECT_EQ(system.queued_changes(), 1u);  // nothing was consumed
  EXPECT_EQ(system.admission_stats().completed, 0u);
  ExpectAdmissionInvariant(system);
  const Result<std::vector<ChangeReport>> retry = system.DrainSyncQueue();
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value().size(), 1u);
  ExpectAdmissionInvariant(system);
}

TEST_F(AdmissionFailpointTest, ViewStartErrorFailsTheChangeBeforeCommit) {
  EveSystem system = MakeChainSystem(4);
  const std::vector<std::string> before = system.ViewNames();
  Failpoints::Instance().Arm(fp::kSyncViewStart, FailpointAction::kError);
  EXPECT_FALSE(system.ApplyChange(CapabilityChange::DeleteRelation("R1")).ok());
  // The failure surfaced before journaling/commit: state is untouched.
  EXPECT_EQ(system.ViewNames(), before);
  EXPECT_TRUE(system.change_log().empty());
  for (const std::string& name : before) {
    EXPECT_EQ(system.GetView(name).value()->state, ViewState::kActive);
  }
}

TEST_F(AdmissionFailpointTest, ViewStartCrashIsParkedAndRethrownOnTheCaller) {
  // With parallel sync the crash fires on a worker thread; the task must
  // park it and ApplyChange rethrows it on the calling thread — the pool
  // itself never sees an exception (which would terminate the process).
  EveSystem system = MakeChainSystem(8);
  system.SetSyncParallelism(4);
  Failpoints::Instance().Arm(fp::kSyncViewStart, FailpointAction::kCrash);
  EXPECT_THROW(system.ApplyChange(CapabilityChange::DeleteRelation("R1")),
               SimulatedCrash);
  // The interrupted change left no trace.
  EXPECT_TRUE(system.change_log().empty());
}

TEST_F(AdmissionFailpointTest, DeadlineExpiredSiteFiresOnPartialViews) {
  EveSystem system = MakeFanSystem();
  system.SetSyncWorkBudget(40);
  Failpoints::Instance().Arm(fp::kSyncDeadlineExpired,
                             FailpointAction::kError);
  // The fan view is deadline-stopped, so the site fires during aggregation
  // and the injected error aborts the change pre-commit.
  EXPECT_FALSE(system.ApplyChange(CapabilityChange::DeleteRelation("R0")).ok());
  EXPECT_TRUE(system.change_log().empty());

  // Without a budget no view is deadline-stopped and the site never fires.
  Failpoints::Instance().Reset();
  Failpoints::Instance().Arm(fp::kSyncDeadlineExpired,
                             FailpointAction::kError);
  system.SetSyncWorkBudget(0);
  EXPECT_TRUE(system.ApplyChange(CapabilityChange::DeleteRelation("R0")).ok());
}

// --- Concurrent admission (runs under TSan in CI) ---------------------------
//
// Many producer threads race EnqueueChange against a drainer and a
// stats sampler. The shedding invariant
//
//   submitted == completed + shed + queued_now
//
// must hold at EVERY sampled instant, not just at quiescence: enqueue
// accounts atomically under the admission lock, and a drain keeps the
// in-flight change counted as queued until its completion is recorded.

void RaceAdmission(ShardedEveSystem& system) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 150;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> samples{0};

  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const AdmissionStats stats = system.admission_stats();
      if (stats.submitted !=
          stats.completed + stats.shed + stats.queued_now) {
        violations.fetch_add(1);
      }
      samples.fetch_add(1);
      (void)system.queued_changes();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Outcomes intentionally vary: the first drain of R1 applies it,
        // re-deletes fail (completed-with-failure), and the queue bound
        // sheds bursts — every path must stay balanced.
        (void)system.EnqueueChange(CapabilityChange::DeleteRelation("R1"));
      }
    });
  }
  std::thread drainer([&] {
    for (int i = 0; i < 40; ++i) (void)system.DrainSyncQueue();
  });

  for (std::thread& producer : producers) producer.join();
  drainer.join();
  stop.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(samples.load(), 0u);

  // Quiesce: drain whatever the racing drains left behind. A drain stops
  // at the first failing change (remainder stays queued), so failures
  // need repeated calls — each consumes at least the failing change.
  while (system.queued_changes() > 0) {
    (void)system.DrainSyncQueue();
  }
  const AdmissionStats stats = system.admission_stats();
  EXPECT_EQ(stats.queued_now, 0u);
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed);
}

TEST(AdmissionConcurrencyTest, InvariantHoldsUnderRacingEnqueueAndDrain) {
  ShardedEveSystem system = MakeServingCore(4);
  system.SetSyncQueueLimit(8);  // small enough that bursts shed
  RaceAdmission(system);
}

TEST(AdmissionConcurrencyTest, ShardedInvariantHoldsUnderRacingEnqueueAndDrain) {
  ShardedEveSystem system = MakeServingCore(4, 2);
  system.SetSyncQueueLimit(8);
  RaceAdmission(system);
}

}  // namespace
}  // namespace eve
