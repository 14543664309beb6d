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
// system's. Each shard has its own reader/writer lock, held exclusively
// only for the short in-memory commit window (never during CVS).
//
// Reads are served RCU-style: after every committed global operation the
// coordinator publishes an immutable Snapshot (MKB tip + per-shard version
// ids) through one pointer swap (common/epoch_ptr.h). Readers pin the
// current snapshot with one pointer copy and keep a whole consistent
// version alive for as long as they hold it — they never block, and are
// never blocked by, a running synchronization.
//
// Determinism: per-shard reports are byte-identical to what a single
// system holding just that partition would produce, and MergeReports
// reconstructs the exact single-system report (unaffected outcomes in
// name order, then affected outcomes in name order), so the merged report
// is byte-identical at ANY shard count.
//
// Sharding is in-memory only. Durability is the single journal of a
// 1-shard system (eve/journal.h): the console refuses JOURNAL, CHECKPOINT,
// RECOVER and every other durable statement unless SET SHARDS 1
// (docs/SHARDING.md).

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

  // Repartitions into `n` shards. Only allowed while the pool is empty —
  // the hash placement of already-registered views cannot be rewritten in
  // place.
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

  // Pins the last published snapshot: one pointer copy, no shard locks, and
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
  // (readers are lock-free against them).

  // MKB evolution, fanned out to every replica in order.
  Status ExtendMkb(std::string_view misd_text);
  Status RetractConstraint(const std::string& id);

  // View registration, routed to the owning shard.
  Status RegisterView(const ViewDefinition& view);
  Status RegisterViewText(std::string_view text);
  // Partitions the batch by owning shard; one version commit per shard
  // touched.
  Status RegisterViewsBulk(const std::vector<ViewDefinition>& views);
  Status SetViewState(const std::string& name, ViewState state);

  // The three-step strategy across shards: prepare on EVERY shard first
  // (any prepare failure aborts cleanly with nothing committed anywhere),
  // then commit shard by shard in index order. The merged report is
  // byte-identical to the single-system report for the same pool.
  Result<ChangeReport> ApplyChange(const CapabilityChange& change);

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
  // further mutation is refused. The way out is a rebuild from an MKB
  // (LOAD MISD replaces the whole system).
  bool poisoned() const { return poisoned_; }

 private:
  struct Shard {
    explicit Shard(EveSystem sys) : system(std::move(sys)) {}
    EveSystem system;
    // Exclusive only for the in-memory commit window; readers share.
    mutable std::shared_mutex mu;
    uint64_t commits = 0;
  };

  // Reconstructs the single-system report from the per-shard reports:
  // unaffected outcomes (name order), then affected outcomes (name
  // order); constraint lists must agree across shards.
  static Result<ChangeReport> MergeReports(
      const std::vector<ChangeReport>& per_shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  // Behind unique_ptr: the mutex inside EpochPtr pins it in place, while
  // ShardedEveSystem itself stays movable (LOAD MISD move-assigns a fresh
  // system).
  std::unique_ptr<EpochPtr<ShardedSnapshot>> published_ =
      std::make_unique<EpochPtr<ShardedSnapshot>>();
  uint64_t epoch_ = 0;
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

}  // namespace eve

#endif  // EVE_EVE_SHARDED_SYSTEM_H_
