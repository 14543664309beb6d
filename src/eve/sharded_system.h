// ShardedEveSystem: the sharded view-pool serving core.
//
// The pool of registered views is hash-partitioned (common/sharding.h) over
// N shards. Each shard is a full EveSystem replica: it holds the COMPLETE
// MKB (every MKB-evolving operation is applied to every shard in the same
// global order, so the replicas stay byte-identical — recovery asserts it)
// but only its own partition of the view pool. A capability change
// therefore runs the expensive CVS synchronization only on the shard(s)
// owning affected views; on every other shard it is a cheap no-op commit,
// so a change's cost scales with its OWN shard's pool, not the whole
// system's. Each shard has its own write-ahead journal and checkpoint
// section, and its own reader/writer lock held exclusively only for the
// short in-memory commit window (never during CVS).
//
// Reads are served RCU-style: after every committed global operation the
// coordinator publishes an immutable Snapshot (MKB tip + per-shard version
// ids) through one atomic pointer swap (common/epoch_ptr.h). Readers pin
// the current snapshot with a single atomic load and keep a whole
// consistent version alive for as long as they hold it — they never block,
// and are never blocked by, a running synchronization.
//
// Determinism: per-shard reports are byte-identical to what a single
// system holding just that partition would produce, and MergeReports
// reconstructs the exact single-system report (unaffected outcomes in
// name order, then affected outcomes in name order), so the merged report
// is byte-identical at ANY shard count and drain parallelism.
//
// Durability across N journals (docs/SHARDING.md): global operations fan
// out one record per shard journal; recovery counts completed global units
// per journal and truncates every journal to the longest prefix present on
// ALL shards (the cross-shard barrier), so the system deterministically
// recovers to the pre- or post-state of the interrupted operation, never a
// mixed state. Checkpoints are made atomic across the N section files by a
// manifest rename plus per-journal generation markers (kJournalEpoch).

#ifndef EVE_EVE_SHARDED_SYSTEM_H_
#define EVE_EVE_SHARDED_SYSTEM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/epoch_ptr.h"
#include "common/result.h"
#include "common/sharding.h"
#include "eve/eve_system.h"
#include "eve/journal.h"

namespace eve {

// One immutable published version of the whole sharded system.
struct ShardedSnapshot {
  // Monotonic publication counter (0 = never published).
  uint64_t epoch = 0;
  // The MKB tip at publication (the shard-0 replica; all replicas agree).
  std::shared_ptr<const Mkb> mkb;
  // Each shard's committed version id at publication.
  std::vector<uint64_t> shard_versions;
  // Each shard's pinned tip version node. Holding the snapshot keeps every
  // rendered segment alive and byte-stable across concurrent commits, so
  // readers (evectl SHOW VIEWS / SHOW VIEW) serve view definitions from
  // these bytes without touching any shard lock.
  std::vector<std::shared_ptr<const MkbVersion>> shard_tips;

  // The pinned VIEWS segment body of shard `i` ("" if the shard has never
  // committed a views rendering, e.g. the genesis version).
  const std::string& ViewsText(size_t i) const;
};

// Per-shard serving statistics (SHOW SHARD STATS).
struct ShardStatsRow {
  size_t shard = 0;
  size_t views = 0;
  size_t active_views = 0;
  // Committed capability changes that affected at least one view owned by
  // this shard (every shard also absorbs the no-op replica commits; those
  // are not counted here).
  uint64_t commits = 0;
  // Queued changes whose affected-view set intersects this shard.
  size_t queue_depth = 0;
  // The shard's committed version-chain tip.
  uint64_t last_synced_version = 0;
};

class ShardedEveSystem {
 public:
  explicit ShardedEveSystem(Mkb mkb, CvsOptions options = {},
                            size_t shard_count = 1);

  ShardedEveSystem(ShardedEveSystem&&) = default;
  ShardedEveSystem& operator=(ShardedEveSystem&&) = default;

  // Repartitions into `n` shards. Only allowed while the pool is empty and
  // no journals are attached — the hash placement of already-registered
  // views (and their journal records) cannot be rewritten in place.
  Status SetShardCount(size_t n);
  size_t shard_count() const { return shards_.size(); }

  // The shard that owns view `name`.
  size_t ShardOfView(const std::string& name) const {
    return ShardOf(name, shards_.size());
  }

  // Direct shard access. Shard 0 of a 1-shard system IS the classic
  // single EveSystem (evectl delegates to it for exact legacy behavior).
  EveSystem& shard(size_t i) { return shards_[i]->system; }
  const EveSystem& shard(size_t i) const { return shards_[i]->system; }

  // Configuration fan-out to every shard.
  void SetSyncParallelism(size_t threads);
  void SetReportUnaffected(bool on);
  void SetVersioningMode(VersioningMode mode);

  // --- Reads ---------------------------------------------------------------

  // Pins the last published snapshot: one atomic load, no shard locks, and
  // the snapshot stays byte-stable across any number of concurrent
  // commits. Null until the first PublishSnapshot().
  std::shared_ptr<const ShardedSnapshot> PinPublished() const {
    return published_->Pin();
  }

  // Publishes the current committed state. Mutating operations publish
  // internally; callers driving a shard directly (evectl's 1-shard
  // delegation) call this after each mutation.
  void PublishSnapshot();

  // Merged name-sorted view names / counts across shards.
  std::vector<std::string> ViewNames() const;
  size_t NumViews() const;
  size_t NumActiveViews() const;
  Result<const RegisteredView*> GetView(const std::string& name) const;

  // Merged name-sorted affected views (each shard answers from its own
  // inverted index, under its shared lock).
  std::vector<std::string> AffectedViews(const CapabilityChange& change) const;

  // --- Mutations (single coordinator thread) -------------------------------
  //
  // All mutating calls must come from one coordinator thread at a time
  // (readers are lock-free against them). DrainSyncQueueParallel spawns
  // its own per-shard workers internally.

  // MKB evolution, fanned out to every replica in order.
  Status ExtendMkb(std::string_view misd_text);
  Status RetractConstraint(const std::string& id);

  // View registration, routed to the owning shard.
  Status RegisterView(const ViewDefinition& view);
  Status RegisterViewText(std::string_view text);
  // Partitions the batch by owning shard; one journal record and one
  // version commit per shard touched.
  Status RegisterViewsBulk(const std::vector<ViewDefinition>& views);
  Status SetViewState(const std::string& name, ViewState state);

  // The three-step strategy across shards: prepare on EVERY shard first
  // (any prepare failure aborts cleanly with nothing committed anywhere),
  // then commit shard by shard in index order. The merged report is
  // byte-identical to the single-system report for the same pool.
  Result<ChangeReport> ApplyChange(const CapabilityChange& change);

  // Transactional batch across shards: per-shard journal batch brackets,
  // all-shards rollback on failure.
  Result<std::vector<ChangeReport>> ApplyChanges(
      const std::vector<CapabilityChange>& changes);

  // --- Admission -----------------------------------------------------------
  //
  // EnqueueChange, queued_changes and admission_stats are safe from any
  // thread (network sessions admit concurrently); drains serialize among
  // themselves and count the in-flight change as queued until its outcome
  // lands, so submitted == completed + shed + queued_now holds at every
  // sampled instant.

  void SetSyncQueueLimit(size_t limit) { sync_queue_limit_ = limit; }
  size_t sync_queue_limit() const { return sync_queue_limit_; }
  Status EnqueueChange(const CapabilityChange& change);
  // FIFO drain on the calling thread, one cross-shard commit per change.
  Result<std::vector<ChangeReport>> DrainSyncQueue();
  // One worker per shard: each applies the SAME queued change stream in
  // order to its own shard (prepare outside the shard lock, commit under
  // it), so changes whose affected views land on different shards run
  // their synchronizations concurrently. Reports are merged after the
  // join — byte-identical to the sequential drain's.
  Result<std::vector<ChangeReport>> DrainSyncQueueParallel();
  size_t queued_changes() const {
    std::lock_guard<std::mutex> lock(*admission_mu_);
    return sync_queue_.size();
  }
  AdmissionStats admission_stats() const {
    std::lock_guard<std::mutex> lock(*admission_mu_);
    return admission_stats_;
  }

  // --- Observability -------------------------------------------------------

  std::vector<ShardStatsRow> Stats() const;
  std::string RenderShardStats() const;

  // A commit-phase failure left the replicas potentially diverged; every
  // further mutation is refused until the system is recovered from its
  // journals (which re-converges the replicas deterministically).
  bool poisoned() const { return poisoned_; }

  // --- Durability ----------------------------------------------------------

  // Opens (creating if absent) and attaches one journal per shard:
  // "<wal_base>.shard<i>". The journals are owned by this object.
  Status AttachJournals(const std::string& wal_base);
  void DetachJournals();
  bool journals_attached() const { return !wal_base_.empty(); }

  // Checkpoints every shard and resets the journals, atomically across the
  // N files: per-shard section files "<ckpt_base>.shard<i>.g<G>" are
  // written first, then the manifest "<ckpt_base>.manifest" rename commits
  // generation G, then each journal is reset and stamped with a
  // kJournalEpoch(G) record. A crash before the manifest rename keeps
  // generation G-1; a crash after it leaves stale journals that recovery
  // detects by their missing epoch marker.
  Status WriteShardedCheckpoint(const std::string& ckpt_base);

  // Rebuilds the system from the manifest + per-shard checkpoints +
  // per-shard journals. Applies the cross-shard barrier (truncate every
  // journal to the longest globally-complete prefix), then replays each
  // shard — in parallel when `parallel_replay` is set, serially otherwise;
  // both produce byte-identical state (asserted in tests). The recovered
  // system has no journals attached.
  static Result<ShardedEveSystem> RecoverShardedFromFiles(
      const std::string& ckpt_base, const std::string& wal_base,
      RecoveryReport* report = nullptr, bool parallel_replay = true);

 private:
  struct Shard {
    explicit Shard(EveSystem sys) : system(std::move(sys)) {}
    EveSystem system;
    // Exclusive only for the in-memory commit window; readers share.
    mutable std::shared_mutex mu;
    std::unique_ptr<Journal> journal;
    uint64_t commits = 0;
  };

  ShardedEveSystem() = default;  // recovery assembles shards directly

  // Cross-shard prepare-all/commit-all for one change; does NOT publish.
  Result<ChangeReport> ApplyChangeNoPublish(const CapabilityChange& change);

  // Reconstructs the single-system report from the per-shard reports:
  // unaffected outcomes (name order), then affected outcomes (name
  // order); constraint lists must agree across shards.
  static Result<ChangeReport> MergeReports(
      const std::vector<ChangeReport>& per_shard);

  // Re-renders every replica's MKB and fails if any diverges from shard 0.
  Status CheckReplicaConvergence() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  // Behind unique_ptr: the atomic inside EpochPtr pins it in place, while
  // ShardedEveSystem itself stays movable (Result returns).
  std::unique_ptr<EpochPtr<ShardedSnapshot>> published_ =
      std::make_unique<EpochPtr<ShardedSnapshot>>();
  uint64_t epoch_ = 0;
  std::string wal_base_;
  uint64_t checkpoint_generation_ = 0;
  size_t sync_queue_limit_ = 0;
  std::deque<CapabilityChange> sync_queue_;
  AdmissionStats admission_stats_;
  // admission_mu_ guards sync_queue_ + admission_stats_; drain_mu_
  // serializes drains against each other. Drains only peek/pop under
  // admission_mu_ and apply changes outside it, so admission_mu_ is never
  // held while taking shard locks. Behind shared_ptr so the system stays
  // movable.
  std::shared_ptr<std::mutex> admission_mu_ = std::make_shared<std::mutex>();
  std::shared_ptr<std::mutex> drain_mu_ = std::make_shared<std::mutex>();
  bool poisoned_ = false;
};

// --- Cross-shard journal barrier (exposed for tests) ------------------------

// The number of COMPLETED global units in one shard journal's record list.
// A global unit is one globally-ordered operation that fans out to every
// shard journal: a kApplyChange / kExtendMkb / kRetractConstraint /
// kRollback record outside a batch, or one whole batch (counted at its
// kCommitBatch / kAbortBatch marker). Shard-local records (registrations,
// view-state flips, membership rows, version markers, epoch markers) pass
// through uncounted.
size_t CompletedGlobalUnits(const std::vector<JournalRecord>& records);

// The record-count prefix of `records` containing exactly `units`
// completed global units plus any trailing shard-local records before the
// next unit begins. Truncating every shard journal to its own
// PrefixEndForUnits(min over shards) is the cross-shard recovery barrier.
size_t PrefixEndForUnits(const std::vector<JournalRecord>& records,
                         size_t units);

}  // namespace eve

#endif  // EVE_EVE_SHARDED_SYSTEM_H_
