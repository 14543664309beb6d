// EveSystem: the end-to-end EVE facade implementing the paper's three-step
// strategy (Sec. 4): on a capability change it (1) evolves the MKB,
// (2) detects affected views, (3) synchronizes each affected view with CVS,
// replacing definitions of curable views and disabling the rest.

#ifndef EVE_EVE_EVE_SYSTEM_H_
#define EVE_EVE_EVE_SYSTEM_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "cvs/cvs.h"
#include "esql/view_definition.h"
#include "eve/materialization.h"
#include "federation/membership.h"
#include "mkb/capability_change.h"
#include "mkb/mkb.h"
#include "mkb/version_store.h"

namespace eve {

class Journal;
struct JournalRecord;

enum class ViewState { kActive, kDisabled };

struct RegisteredView {
  ViewDefinition definition;
  ViewState state = ViewState::kActive;
  // One line per synchronization event ("rewritten under delete-relation
  // Customer", ...).
  std::vector<std::string> history;
  // Degraded-mode marker: sources this view's current rewriting depends on
  // that were SUSPECT/QUARANTINED when the rewriting was chosen. The
  // rewriting used last-known (possibly stale) constraints from those
  // sources; the marks clear when every listed source heals to HEALTHY.
  std::set<std::string> provisional_sources;
  // The MKB version this view's definition was last validated or
  // synchronized against: the version created by its registration, by the
  // ApplyChange that last rewrote it, or carried verbatim through a
  // rollback. The scrubber checks it always names a retained version.
  uint64_t synced_at_version = 0;
};

enum class ViewOutcomeKind { kUnaffected, kRewritten, kDisabled };

struct ViewOutcome {
  std::string view_name;
  ViewOutcomeKind kind = ViewOutcomeKind::kUnaffected;
  // For kRewritten: the chosen rewriting's description; for kDisabled: the
  // failure diagnostics.
  std::string detail;
  // Degraded sources the rewriting leaned on (see
  // RegisteredView::provisional_sources). Un-marked in place when the
  // sources heal, so a healed-within-lease run's report log converges to
  // the fault-free log byte for byte.
  std::vector<std::string> provisional_sources;
};

struct ChangeReport {
  CapabilityChange change;
  std::vector<std::string> dropped_constraints;
  std::vector<std::string> weakened_constraints;
  std::vector<ViewOutcome> outcomes;

  size_t CountOutcome(ViewOutcomeKind kind) const;
  std::string ToString() const;
};

// Per-view incompleteness lists for the most recent change, plus watchdog
// accounting. Deterministic: assembled on the calling thread in view-name
// order, so the lists are byte-identical at any sync parallelism.
// Observability only — not part of ChangeReport, not journaled.
struct SyncDiagnostics {
  // Views whose candidate enumeration was cut by a count bound
  // (max_cover_combinations, candidate_budget/max_results before
  // exhaustion, or search_sets_cut) — their result may be incomplete.
  // Sorted by name.
  std::vector<std::string> truncated_views;
  // Views whose search was stopped by the deadline token (work budget,
  // wall deadline, or cancellation): their rewriting list is a valid
  // best-under-budget prefix. Sorted by name.
  std::vector<std::string> deadline_views;
  // Times the wall-clock watchdog cancelled a sync that overran its
  // deadline without reaching a cooperative check first.
  uint64_t watchdog_cancels = 0;

  // "truncated views: A, B; deadline views: C" — empty when clean.
  std::string ToString() const;
};

// Admission accounting for the bounded sync queue. The shedding invariant
// (checked by tests and the CI stress job): submitted == completed + shed
// + queued_now — every submitted change is either applied (completed,
// successfully or with an explicit per-change error), rejected with an
// explicit ResourceExhausted (shed), or still waiting. Nothing disappears
// silently.
struct AdmissionStats {
  uint64_t submitted = 0;  // EnqueueChange calls
  uint64_t shed = 0;       // rejected: queue at limit (or injected fault)
  uint64_t completed = 0;  // drained and applied (includes explicit
                           // per-change failures; see failed)
  uint64_t failed = 0;     // of completed: ApplyChange returned an error
  size_t queued_now = 0;   // currently waiting

  // "submitted 5, completed 3 (1 failed), shed 2, queued 0".
  std::string ToString() const;
};

// What Recover did with the journal, for operator diagnostics.
struct RecoveryReport {
  size_t replayed = 0;       // records applied successfully
  size_t skipped = 0;        // records whose replay failed (e.g. the change
                             // also failed in the original run)
  size_t discarded = 0;      // records in uncommitted batches
  bool torn_tail = false;    // journal ended in a torn record
  size_t torn_bytes = 0;     // bytes dropped with the torn tail
  std::vector<std::string> notes;

  std::string ToString() const;
};

// The outcome of a what-if synchronization (DryRunChange / DryRunChangeAt):
// exactly the ChangeReport a commit from `base_version` would produce, plus
// the sync diagnostics of the run — with zero side effects on the system.
struct DryRunReport {
  uint64_t base_version = 0;  // the pinned version the CVS run read
  ChangeReport report;
  SyncDiagnostics diagnostics;

  std::string ToString() const;
};

// What each committed version retains for the view pool.
enum class VersioningMode {
  // Every version carries the serialized view pool (the default): full
  // point-in-time rollback and AT VERSION reads.
  kFullSnapshots,
  // Versions share the VIEWS segment frozen at the mode switch instead of
  // re-rendering the pool — a commit costs O(MKB), not O(views). The MKB
  // chain stays fully versioned; RollbackToVersion and DryRunChangeAt are
  // unavailable. For million-view pools where rendering the pool per
  // commit would dominate every change.
  kMkbOnly,
};

class EveSystem {
 public:
  explicit EveSystem(Mkb mkb, CvsOptions options = {});

  // The live (tip) MKB. Reads through the pinned tip snapshot, so copies
  // of the returned reference stay valid while a caller holds PinTip().
  const Mkb& mkb() const { return *mkb_tip_; }

  // --- Versioning ----------------------------------------------------------
  //
  // Every journaled mutation (MKB extension/retraction, view registration
  // and state flips, capability changes, rollbacks) commits a new immutable
  // version into the copy-on-write chain; reads can pin any retained
  // version in O(1) and are never blocked (or torn) by a running
  // synchronization. Federation membership rows are deliberately NOT
  // versioned: a healed run must stay byte-identical to a fault-free run.

  const MkbVersionStore& versions() const { return versions_; }
  uint64_t current_version() const { return versions_.tip_id(); }

  // O(1) snapshot of the tip (shared_ptr swap, no copy, no parse).
  PinnedMkb PinTip() const { return versions_.Tip(); }
  // Pins an arbitrary retained version (non-tip versions reparse).
  Result<PinnedMkb> PinVersion(uint64_t version) const {
    return versions_.Pin(version);
  }
  // The serialized view pool frozen at `version` (AT VERSION n reads).
  Result<std::string> ViewsTextAt(uint64_t version) const {
    return versions_.ViewsAt(version);
  }

  // What-if synchronization: runs the full prepare phase (MKB evolution,
  // affected-view detection, CVS) against the pinned tip and ABORTS —
  // nothing is journaled, no version is created, MKB and views are
  // byte-unchanged. The report matches what ApplyChange would commit.
  Result<DryRunReport> DryRunChange(const CapabilityChange& change) const;
  // Same, against retained version `version`: the report a
  // RollbackToVersion(version) followed by ApplyChange(change) would
  // produce, again with zero side effects.
  Result<DryRunReport> DryRunChangeAt(const CapabilityChange& change,
                                      uint64_t version) const;

  // Restores MKB and view pool to retained version `version`, committed as
  // a NEW journaled version (kRollback) — history is never truncated, so a
  // rollback can itself be rolled back. Surviving views keep their full
  // history plus a rollback marker. Returns the new version's id.
  Result<uint64_t> RollbackToVersion(uint64_t version);

  // Integrity scrub: the whole version chain (segment checksums, version
  // checksums, id sequence, parent links — see MkbVersionStore::Scrub)
  // plus every view's synced_at_version naming a retained version and the
  // live MKB re-rendering byte-identically to the tip version's segments.
  VersionScrubStats ScrubVersions() const;

  // Checkpoint loading only: overrides a view's synced-at stamp verbatim.
  Status SetViewSyncedVersion(const std::string& name, uint64_t version);
  // Checkpoint loading only: replaces the version chain (the live MKB must
  // re-render to the store's tip, else the checkpoint is inconsistent).
  Status RestoreVersionStore(MkbVersionStore store);

  // Additive MKB evolution: a (new or existing) source publishes MISD
  // statements — relations, join constraints, function-of constraints, PC
  // constraints. Purely additive, so no view is affected (paper Sec. 5:
  // add-relation / add-attribute leave views valid). Atomic: on failure
  // the MKB is unchanged.
  Status ExtendMkb(std::string_view misd_text);

  // A source withdraws a published constraint. Views stay valid (they
  // never reference constraints directly), but future synchronizations
  // lose the retracted semantics.
  Status RetractConstraint(const std::string& id);

  // Registers a bound view (re-validated against the current MKB).
  Status RegisterView(const ViewDefinition& view);
  // Parses, binds and registers an E-SQL CREATE VIEW statement.
  Status RegisterViewText(std::string_view text);
  // Registers a batch of views as ONE journal record and ONE committed
  // version (all-or-nothing validation up front; nothing is journaled or
  // registered if any view fails). Bulk loading a million-view pool this
  // way is O(batch) journal fsyncs instead of O(views).
  Status RegisterViewsBulk(const std::vector<ViewDefinition>& views);

  // Selects what each committed version retains (see VersioningMode). Not
  // journaled — a configuration like sync parallelism, set before heavy
  // load; recovery replays under whatever mode the recovering process set.
  void SetVersioningMode(VersioningMode mode) { versioning_mode_ = mode; }
  VersioningMode versioning_mode() const { return versioning_mode_; }

  // Whether each ChangeReport lists a kUnaffected outcome per untouched
  // view (CvsOptions::report_unaffected): O(pool) per change when on.
  void SetReportUnaffected(bool on) { options_.report_unaffected = on; }
  bool report_unaffected() const { return options_.report_unaffected; }

  // --- Materialization (data plane) ----------------------------------------
  //
  // Optionally couples the control plane to a physical data plane: a
  // MaterializedViewStore holding view extents and the Database holding
  // the base tables (both non-owning; pass nullptr/nullptr to detach).
  // While attached, every committed capability change is propagated
  // post-commit: the change is applied to the database
  // (ApplyChangeToDatabase), each rewritten view's stored extent is
  // brought to its new definition via IncrementalRefresh — consulting the
  // CVS-inferred extent verdict, so Equal-verdict rewritings reuse the old
  // extent with zero scanning — and disabled views' extents are dropped.
  // Data-plane failures surface as the change's (deferred) error but never
  // roll back the already-committed control-plane state. The database must
  // hold every relation a change touches. Rollback and recovery do NOT
  // restore extents; re-attach and refresh after either.
  void AttachMaterialization(MaterializedViewStore* store, Database* db) {
    mat_store_ = store;
    mat_db_ = db;
    if (mat_store_ != nullptr) mat_store_->SetStrategy(executor_strategy_);
  }
  MaterializedViewStore* materialization() const { return mat_store_; }

  // Join/executor strategy for all view evaluation this system triggers
  // (incremental-refresh delta queries and full refreshes through the
  // attached store). Also forwarded to the attached store, if any.
  void SetExecutorStrategy(JoinStrategy strategy) {
    executor_strategy_ = strategy;
    if (mat_store_ != nullptr) mat_store_->SetStrategy(strategy);
  }

  Result<const RegisteredView*> GetView(const std::string& name) const;

  // Flags a registered view (used by view-pool persistence and operators
  // manually disabling a view).
  Status SetViewState(const std::string& name, ViewState state);
  std::vector<std::string> ViewNames() const;
  size_t NumViews() const { return views_.size(); }
  size_t NumActiveViews() const;

  // Detects the views step 2 flags as affected by `change` against the
  // current MKB (directly: they reference the deleted/renamed element).
  // Served from the inverted relation/attribute → views index, so the cost
  // scales with the number of dependent views, not the pool size. Returns
  // names in sorted order.
  std::vector<std::string> AffectedViews(const CapabilityChange& change) const;

  // Sets how many threads (including the calling one) step 3 uses to
  // synchronize the affected views of one change. 0 and 1 both mean fully
  // sequential. Reports, journal records and all observable state are
  // byte-identical at every setting: workers only compute per-view CVS
  // results into private slots; assembly, journaling and commit stay on
  // the calling thread in view-name order.
  void SetSyncParallelism(size_t threads);
  size_t sync_parallelism() const { return sync_parallelism_; }

  // Per-sync enumeration knobs, threaded into every CVS run (including the
  // parallel batch path — they only narrow each view's private search, so
  // reports stay byte-identical across thread counts). 0 disables either.
  void SetSyncTopK(size_t k) { options_.top_k = k; }
  size_t sync_top_k() const { return options_.top_k; }
  void SetSyncCandidateBudget(size_t budget) {
    options_.candidate_budget = budget;
  }
  size_t sync_candidate_budget() const { return options_.candidate_budget; }

  // --- Deadlines and cancellation ------------------------------------------
  //
  // Two independent stopping mechanisms, both cooperative (checked at
  // enumeration-step safe points, so a search never overruns by more than
  // one step):
  //
  //  * The logical work budget is DETERMINISTIC: it counts enumerator
  //    expansions and candidate emissions per view, each view's token is
  //    spent entirely on the thread running that view, and every stopped
  //    layer returns its best-so-far prefix. Reports, stats and journal
  //    bytes are therefore byte-identical at any sync parallelism.
  //  * The wall-clock deadline (and the watchdog backstop) are BEST
  //    EFFORT: where a run stops depends on machine speed, so results
  //    under a wall deadline are valid partial results but not
  //    reproducible bytes. Tests pin the clock with SetClockForTesting.

  // Per-view logical work budget (0 = unlimited). One unit is one join-tree
  // frontier expansion or one candidate emission.
  void SetSyncWorkBudget(uint64_t units) { sync_work_budget_ = units; }
  uint64_t sync_work_budget() const { return sync_work_budget_; }

  // Wall-clock deadline per change (0 = none), measured from the start of
  // ApplyChange on the configured clock.
  void SetSyncDeadlineMicros(uint64_t micros) { sync_deadline_micros_ = micros; }
  uint64_t sync_deadline_micros() const { return sync_deadline_micros_; }

  // Watchdog backstop (0 = off): a real-time guard thread that cancels the
  // change's whole cancellation tree if synchronization is still running
  // after this long — catches a task stuck between cooperative checks.
  // Always real time, independent of SetClockForTesting.
  void SetSyncWatchdogMicros(uint64_t micros) { sync_watchdog_micros_ = micros; }
  uint64_t sync_watchdog_micros() const { return sync_watchdog_micros_; }

  // Clock the deadline token reads (tests install a ManualClock; nullptr
  // restores the steady clock). Non-owning; must outlive the system.
  void SetClockForTesting(const Clock* clock) { sync_clock_ = clock; }

  // Cancels the change currently being synchronized (if any): the root
  // token is cancelled, and every per-view search stops at its next safe
  // point, returning its best-so-far prefix. Safe to call from any thread;
  // a no-op when no sync is active.
  void CancelActiveSync() const;

  // --- Admission control ---------------------------------------------------
  //
  // A bounded FIFO of pending changes with explicit load-shedding. Each
  // drained change runs under a fresh deadline token built from the knobs
  // above. Invariant: submitted == completed + shed + queued_now.
  //
  // Thread safety: EnqueueChange, queued_changes, admission_stats and
  // CancelActiveSync may be called concurrently from any number of threads
  // (the network front end admits from many sessions at once). Drains are
  // serialized among themselves, and a change being applied still counts
  // as queued until its outcome is recorded, so the invariant above holds
  // at EVERY observable instant, not just at rest.

  // Queue bound for EnqueueChange (0 = unbounded).
  void SetSyncQueueLimit(size_t limit) { sync_queue_limit_ = limit; }
  size_t sync_queue_limit() const { return sync_queue_limit_; }

  // Admits `change` into the pending queue. When the queue is at its
  // limit, the NEWEST submission (this one) is rejected with an explicit
  // kResourceExhausted — never silently dropped.
  Status EnqueueChange(const CapabilityChange& change);

  // Applies every queued change in FIFO order, each under its own deadline
  // built from the current knobs. Stops at the first failing change with
  // its error; the remainder stays queued for a later drain.
  Result<std::vector<ChangeReport>> DrainSyncQueue();

  size_t queued_changes() const {
    std::lock_guard<std::mutex> lock(*admission_mu_);
    return sync_queue_.size();
  }
  // A consistent snapshot of the counters (all four fields are updated
  // under one lock, so a sampled snapshot always satisfies the invariant).
  AdmissionStats admission_stats() const {
    std::lock_guard<std::mutex> lock(*admission_mu_);
    return admission_stats_;
  }

  // Per-view truncation/deadline lists for the most recent ApplyChange or
  // PreviewChange (same lifecycle as last_sync_stats()).
  const SyncDiagnostics& last_sync_diagnostics() const {
    return last_sync_diagnostics_;
  }

  // Enumeration counters aggregated (in view-name order, on the calling
  // thread) across the affected views of the most recent ApplyChange or
  // PreviewChange. Observability only — not part of ChangeReport, not
  // journaled, not restored by recovery.
  const EnumerationStats& last_sync_stats() const { return last_sync_stats_; }

  // The three-step strategy. On success the MKB is evolved and every
  // affected view is either rewritten in place (keeping its registered
  // name) or disabled.
  Result<ChangeReport> ApplyChange(const CapabilityChange& change);

  // What-if analysis: the report ApplyChange(change) WOULD produce, with
  // no state mutated — lets an administrator see which views a change
  // would disable before the source actually withdraws the capability.
  Result<ChangeReport> PreviewChange(const CapabilityChange& change) const;

  // An information source leaves the environment (paper Sec. 1): applies
  // delete-relation for every relation the source exports, one change at a
  // time, so views can hop between the departing source's relations while
  // some still exist. Returns one report per deleted relation. The whole
  // cascade is one transaction (journaled as a batch): a failure mid-way
  // rolls every relation back, so the source is either fully present or
  // fully departed — never half-left.
  Result<std::vector<ChangeReport>> SourceLeaves(const std::string& source);

  // --- Federation membership ----------------------------------------------
  //
  // EveSystem is the durable home of the per-source membership table (see
  // federation/membership.h); the probe scheduler that drives transitions
  // lives above it in federation/monitor.h.

  const std::map<std::string, federation::SourceMembership>&
  source_membership() const {
    return membership_;
  }

  // Journals (kSourceMembership) and commits one source's membership row.
  // When the row heals to HEALTHY, the source's provisional marks are
  // removed from every live view and every logged outcome — the degraded
  // rewritings are thereby confirmed, and the state converges to what a
  // fault-free run would have produced.
  Status SetSourceMembership(const std::string& source,
                             const federation::SourceMembership& membership);

  // Lease expiry: marks the source DEPARTED and runs the SourceLeaves
  // cascade in the same transaction (tolerating a source that exports no
  // relations). This is the only path from probe faults to rewriting churn.
  Result<std::vector<ChangeReport>> DepartSource(const std::string& source);

  // Checkpoint loading only: replaces the membership table verbatim, no
  // journaling, no heal side effects.
  void RestoreSourceMembership(
      std::map<std::string, federation::SourceMembership> table) {
    membership_ = std::move(table);
  }

  // Checkpoint loading only: restores a view's provisional marks verbatim.
  Status SetViewProvisionalSources(const std::string& name,
                                   std::set<std::string> sources);

  // Applies `changes` in order as one unit. When `transactional` is true
  // and any change fails (e.g. it references an element that is already
  // gone), the MKB, view pool and change log are restored to their state
  // before the batch; views disabled mid-batch stay disabled otherwise.
  Result<std::vector<ChangeReport>> ApplyChanges(
      const std::vector<CapabilityChange>& changes,
      bool transactional = true);

  const std::vector<ChangeReport>& change_log() const { return change_log_; }

  // --- Durability ----------------------------------------------------------

  // Attaches a write-ahead journal (non-owning; pass nullptr to detach).
  // While attached, every state mutation is journaled before it commits,
  // so RecoverFromFiles can rebuild the system after a crash.
  void AttachJournal(Journal* journal) { journal_ = journal; }
  Journal* journal() const { return journal_; }

  // Restores a view verbatim — no re-binding. Used by checkpoint/pool
  // loading, where a disabled view's definition may reference capabilities
  // the current MKB no longer has. `synced_at_version` is carried verbatim
  // (0 = unknown/legacy pools).
  Status RestoreView(ViewDefinition definition, ViewState state,
                     uint64_t synced_at_version = 0);

  // Replaces the change log wholesale (checkpoint loading only).
  void RestoreChangeLog(std::vector<ChangeReport> log) {
    change_log_ = std::move(log);
  }

  // Rebuilds a system from a checkpoint document plus scanned journal
  // records by idempotent replay: records whose application fails (they
  // failed identically before the crash) are skipped, and batch records
  // without a commit marker are discarded. The result is deterministically
  // the pre- or post-operation state of the interrupted run, never a third
  // state. The recovered system has no journal attached.
  static Result<EveSystem> Recover(std::string_view checkpoint_text,
                                   const std::vector<JournalRecord>& records,
                                   RecoveryReport* report = nullptr);

 private:
  // The sharded serving core (eve/sharded_system.h) drives the
  // prepare/commit split directly.
  friend class ShardedEveSystem;
  // The incremental replay loop (eve/journal.h) feeds ReplayRecord one
  // record at a time — recovery and replication replicas share it.
  friend class JournalReplayer;

  // The abortable first phase of a capability change: MKB evolution,
  // affected-view detection and the full CVS fan-out, all against the
  // pinned tip version and all into private state. Discarding the result
  // IS the dry-run/abort path; CommitPrepared is the commit path.
  struct PreparedChange {
    CapabilityChange change;
    uint64_t base_version = 0;  // tip id the prepare ran against
    std::shared_ptr<const Mkb> next_mkb;
    // Post-sync state of ONLY the affected views (a delta, not a pool
    // copy — prepare must stay O(affected) on million-view pools).
    std::map<std::string, RegisteredView> next_views;
    std::vector<std::string> affected;
    ChangeReport report;
    // CVS-inferred extent verdict per rewritten view (absent for disabled
    // views). Consumed by the post-commit materialization hook; not
    // journaled — recovery rebuilds extents by refreshing, not by replay.
    std::map<std::string, ExtentRelation> verdicts;
  };
  Result<PreparedChange> PrepareChange(const CapabilityChange& change) const;
  // Journals (kApplyChange + kVersionCommit), swaps the tip pointer and
  // view pool, and commits the new version. Fails with kFailedPrecondition
  // if the tip advanced since the prepare.
  Result<ChangeReport> CommitPrepared(PreparedChange prepared);

  // Commits the current live state as a new version.
  uint64_t CommitVersion(const std::string& change_desc);

  // Post-commit data-plane propagation (see AttachMaterialization). Runs
  // after the in-memory commit; `old_defs` holds the affected views'
  // pre-change definitions. Returns the first failure, after attempting
  // every view.
  Status SyncMaterialization(
      const PreparedChange& prepared,
      const std::map<std::string, ViewDefinition>& old_defs);

  // Appends to the attached journal, if any.
  Status JournalAppend(const JournalRecord& record);
  // Replays one journal record onto this system (no journaling).
  Status ReplayRecord(const JournalRecord& record);

  // The transactional delete-relation cascade shared by SourceLeaves and
  // DepartSource. A tracked source's DEPARTED membership row is written
  // inside the same batch. `require_relations` makes an empty source an
  // error (an operator-invoked SourceLeaves on an unknown source is a
  // typo; a lease expiry on a relation-less source is a plain departure).
  Result<std::vector<ChangeReport>> LeaveCascade(const std::string& source,
                                                 bool require_relations);

  // Sources whose membership row is Degraded() among those owning a
  // relation `definition` references in `catalog` (sorted, deduped).
  std::vector<std::string> DegradedSourcesOf(const ViewDefinition& definition,
                                             const Catalog& catalog) const;

  // Inverted-index maintenance. Every registered view is indexed under
  // each relation and attribute it references, regardless of state
  // (AffectedViews filters on kActive, so a re-enabled view needs no
  // re-indexing).
  void IndexView(const std::string& name, const ViewDefinition& definition);
  void UnindexView(const std::string& name, const ViewDefinition& definition);
  void RebuildViewIndex();

  // The live MKB is the immutable snapshot behind the version-store tip;
  // commits swap the pointer, so pinned readers keep the old snapshot.
  MkbVersionStore versions_;
  std::shared_ptr<const Mkb> mkb_tip_;
  CvsOptions options_;
  std::map<std::string, RegisteredView> views_;
  // relation name / "rel\x1f attr" key → names of views referencing it.
  // std::set values keep AffectedViews output name-sorted.
  std::unordered_map<std::string, std::set<std::string>> views_by_relation_;
  std::unordered_map<std::string, std::set<std::string>> views_by_attribute_;
  std::vector<ChangeReport> change_log_;
  std::map<std::string, federation::SourceMembership> membership_;
  Journal* journal_ = nullptr;  // non-owning
  MaterializedViewStore* mat_store_ = nullptr;  // non-owning
  Database* mat_db_ = nullptr;                  // non-owning
  JoinStrategy executor_strategy_ = JoinStrategy::kVectorized;
  // Shared (not per-copy) so PreviewChange scratch copies reuse the pool;
  // ParallelFor keeps per-call completion state, so concurrent use is safe.
  std::shared_ptr<ThreadPool> sync_pool_;
  size_t sync_parallelism_ = 1;
  // mutable: PreviewChange is logically const but still reports how much
  // of the candidate space its scratch run explored.
  mutable EnumerationStats last_sync_stats_;
  mutable SyncDiagnostics last_sync_diagnostics_;
  uint64_t sync_work_budget_ = 0;
  uint64_t sync_deadline_micros_ = 0;
  uint64_t sync_watchdog_micros_ = 0;
  const Clock* sync_clock_ = nullptr;  // non-owning; nullptr = steady clock
  VersioningMode versioning_mode_ = VersioningMode::kFullSnapshots;
  size_t sync_queue_limit_ = 0;
  std::deque<CapabilityChange> sync_queue_;
  AdmissionStats admission_stats_;
  // Guards sync_queue_ + admission_stats_ against concurrent producers
  // (EnqueueChange from many sessions) racing the drain. Shared across
  // copies — like sync_token_mu_ — so EveSystem stays copyable.
  std::shared_ptr<std::mutex> admission_mu_ = std::make_shared<std::mutex>();
  // Serializes DrainSyncQueue callers (two drains applying the same change
  // twice would corrupt the accounting; enqueues stay concurrent).
  std::shared_ptr<std::mutex> drain_mu_ = std::make_shared<std::mutex>();
  // Root token of the in-flight change. Guarded by a shared (not per-copy)
  // mutex so CancelActiveSync and the watchdog may fire from other threads
  // while EveSystem itself stays copyable.
  std::shared_ptr<std::mutex> sync_token_mu_ = std::make_shared<std::mutex>();
  mutable DeadlineToken active_sync_token_;
};

}  // namespace eve

#endif  // EVE_EVE_EVE_SYSTEM_H_
