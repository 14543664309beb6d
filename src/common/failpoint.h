// Failpoints: a process-wide registry of named fault-injection sites.
//
// Durable-state code is instrumented with EVE_FAILPOINT("site.name"); in
// production the hit is a cheap counter bump. Tests (or the EVE_FAILPOINTS
// environment variable) arm a site to fire on its Nth upcoming hit with one
// of two actions:
//   kError — the instrumented function returns an injected Status error,
//            exercising the error-propagation path;
//   kCrash — a SimulatedCrash exception unwinds out of the operation,
//            modelling a process crash at exactly that point. The in-memory
//            system is torn; recovery must rebuild it from the checkpoint
//            and journal (see eve/journal.h).
//
// Every site name is declared once in the fp:: catalog below so tests can
// enumerate them (Failpoints::KnownSites) and arm each in turn.

#ifndef EVE_COMMON_FAILPOINT_H_
#define EVE_COMMON_FAILPOINT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace eve {

// The catalog of instrumented sites. Keep in sync with KnownSites().
namespace fp {
inline constexpr char kApplyChangeBeforeJournal[] =
    "eve.apply_change.before_journal";
inline constexpr char kApplyChangeAfterJournal[] =
    "eve.apply_change.after_journal";
inline constexpr char kApplyChangeAfterMkbEvolve[] =
    "eve.apply_change.after_mkb_evolve";
inline constexpr char kApplyChangeBeforeCommit[] =
    "eve.apply_change.before_commit";
inline constexpr char kApplyChangesMidBatch[] = "eve.apply_changes.mid_batch";
inline constexpr char kExtendMkbAfterJournal[] = "eve.extend_mkb.after_journal";
inline constexpr char kRegisterViewAfterJournal[] =
    "eve.register_view.after_journal";
inline constexpr char kRetractConstraintAfterJournal[] =
    "eve.retract_constraint.after_journal";
inline constexpr char kSourceLeavesBetweenChanges[] =
    "eve.source_leaves.between_changes";
inline constexpr char kSourceLeavesBeforeCommit[] =
    "eve.source_leaves.before_commit";
inline constexpr char kSetMembershipAfterJournal[] =
    "eve.set_membership.after_journal";
// Cancellation safe points (see common/cancellation.h). view_start fires
// at the top of each per-view synchronization task (worker thread when
// sync parallelism > 1; a crash is parked and rethrown on the caller in
// slot order); deadline_expired fires on the caller thread, in view-name
// order, for each view whose search was stopped by its DeadlineToken, so
// an armed error converts a partial result into an explicit failure. The
// admission sites bracket the serving core's bounded sync queue
// (eve/sharded_system.h): one fires per submission, one before each
// drained change.
inline constexpr char kSyncViewStart[] = "eve.sync.view_start";
inline constexpr char kSyncDeadlineExpired[] = "eve.sync.deadline_expired";
inline constexpr char kAdmissionEnqueue[] = "eve.admission.enqueue";
inline constexpr char kAdmissionDrain[] = "eve.admission.drain";
// Federation probe transport (federation/transport.h). The `probe` site is
// the generic send path (error = lost probe, crash = monitor death); the
// fault-kind sites convert the Nth probe into that fault when armed with
// the error action.
inline constexpr char kFederationProbeSend[] = "federation.transport.probe";
inline constexpr char kFederationProbeTimeout[] =
    "federation.transport.timeout";
inline constexpr char kFederationProbeSlow[] = "federation.transport.slow";
inline constexpr char kFederationProbeCorrupt[] =
    "federation.transport.corrupt";
inline constexpr char kFederationProbeFlap[] = "federation.transport.flap";
inline constexpr char kJournalAppendBeforeWrite[] =
    "journal.append.before_write";
inline constexpr char kJournalAppendPartialWrite[] =
    "journal.append.partial_write";
inline constexpr char kJournalAppendBeforeFsync[] =
    "journal.append.before_fsync";
inline constexpr char kAtomicWriteAfterTemp[] = "file.atomic_write.after_temp";
inline constexpr char kAtomicWriteBeforeRename[] =
    "file.atomic_write.before_rename";
inline constexpr char kCheckpointLoadValidate[] = "checkpoint.load.validate";
inline constexpr char kViewPoolLoadValidate[] = "viewpool.load.validate";
inline constexpr char kMisdAppendParse[] = "mkb.append_misd.parse";
// Versioned-MKB sites (eve/eve_system.h PrepareChange / CommitPrepared /
// RollbackToVersion; mkb/version_store.h Scrub). prepare_change.complete
// fires at the end of the prepare phase, before anything is journaled —
// an abort there proves dry-runs have zero side effects. before_swap and
// rollback.after_journal sit between the journal append and the in-memory
// commit: an armed error there COMPLETES the commit and then surfaces the
// injected error (the response-lost model), so live memory and journal
// replay stay in agreement; an armed crash models death mid-commit and
// recovery replays to the post state.
inline constexpr char kPrepareChangeComplete[] = "eve.prepare_change.complete";
inline constexpr char kVersionBeforeSwap[] = "eve.version.before_swap";
inline constexpr char kVersionAfterSwap[] = "eve.version.after_swap";
inline constexpr char kRollbackBeforeJournal[] = "eve.rollback.before_journal";
inline constexpr char kRollbackAfterJournal[] = "eve.rollback.after_journal";
inline constexpr char kRollbackAfterRestore[] = "eve.rollback.after_restore";
inline constexpr char kVersionScrub[] = "mkb.version_store.scrub";
// Sharded-system site (eve/sharded_system.h): fires before EACH shard's
// commit in the cross-shard fan-out. Past shard 0 a prefix of the replicas
// already committed the change, so an error there must poison the system
// (ShardedSystemTest.CommitPhaseFailureOnLaterShardPoisons arms it).
inline constexpr char kShardedCommitShard[] = "eve.sharded.commit_shard";
// Network front-end sites (net/server.h). accept fires per accepted
// connection (error = the connection is refused and closed, the server
// keeps serving); session_start fires after the session object is created
// but before it is registered (error = immediate eviction); frame_read /
// frame_write bracket every socket read/flush on a live session (error =
// that session is evicted as if its connection died); drain fires once
// when a graceful drain begins; shutdown fires once on server stop. A
// crash-armed site models the whole server process dying at that point:
// the listener and every session drop abruptly, and durable state must
// RECOVER from the journal. Driven by net_server_test.
inline constexpr char kNetAccept[] = "net.accept";
inline constexpr char kNetSessionStart[] = "net.session_start";
inline constexpr char kNetFrameRead[] = "net.frame_read";
inline constexpr char kNetFrameWrite[] = "net.frame_write";
inline constexpr char kNetDrain[] = "net.drain";
inline constexpr char kNetShutdown[] = "net.shutdown";
// Replication sites (net/replication.h). hello fires on the primary per
// replica subscription (error = the subscription is refused; the replica
// backs off and retries). snapshot.render fires before the primary renders
// a bootstrap checkpoint (error = that hello fails). ship.record fires per
// (record, peer) send on the primary (error = that ONE peer's stream is
// broken with a goodbye — the replica reconnects and re-syncs; later
// records are never delivered out of order). apply.record fires on the
// replica before each shipped record is journaled+applied (error = the
// replica abandons the stream and re-syncs from a fresh hello; crash =
// replica process death mid-apply, recovery resumes from its local WAL).
// ack.send fires before each replica ack (error = the ack is dropped;
// semi-sync primaries stall until the next ack). promote fires during
// candidate promotion, after the new epoch is chosen but before the node
// starts accepting writes (crash = death mid-failover; the cluster elects
// again without it).
inline constexpr char kReplHello[] = "repl.hello";
inline constexpr char kReplSnapshotRender[] = "repl.snapshot.render";
inline constexpr char kReplShipRecord[] = "repl.ship.record";
inline constexpr char kReplApplyRecord[] = "repl.apply.record";
inline constexpr char kReplAckSend[] = "repl.ack.send";
inline constexpr char kReplPromote[] = "repl.promote";
}  // namespace fp

// Thrown by an armed kCrash failpoint. The codebase is otherwise
// exception-free, so the unwind reaches the test's catch block directly —
// everything between the site and the catch is abandoned, exactly like a
// process that died there (minus the durable files already written).
class SimulatedCrash {
 public:
  explicit SimulatedCrash(std::string site) : site_(std::move(site)) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

enum class FailpointAction { kError, kCrash };

class Failpoints {
 public:
  static Failpoints& Instance();

  // Arms `site` to fire on the `on_hit`-th upcoming hit (1-based, counted
  // from now), then auto-disarm. Re-arming replaces the previous arming.
  void Arm(const std::string& site, FailpointAction action, int on_hit = 1);
  void Disarm(const std::string& site);
  // Disarms every site and resets all hit counters.
  void Reset();

  // Called by EVE_FAILPOINT at instrumented sites. Returns an injected
  // error when an armed kError site fires; throws SimulatedCrash when an
  // armed kCrash site fires; otherwise returns OK.
  Status Hit(const char* site);

  // Total times `site` was hit since the last Reset().
  uint64_t HitCount(const std::string& site) const;

  // Every site named in the fp:: catalog.
  static const std::vector<std::string>& KnownSites();

  // Parses an arming spec: "site=error,other.site=crash@3" (fire the
  // other.site crash on its 3rd hit). Used for the EVE_FAILPOINTS env var.
  Status ArmFromSpec(std::string_view spec);

 private:
  struct Arming {
    FailpointAction action = FailpointAction::kError;
    // Fires when `remaining` reaches zero on a hit.
    int remaining = 1;
  };

  Failpoints();

  mutable std::mutex mu_;
  std::map<std::string, Arming> armed_;
  std::map<std::string, uint64_t> hits_;
};

}  // namespace eve

// Instruments a fault-injection site inside a function returning Status or
// Result<T>. Disarmed cost: one registry lookup.
#define EVE_FAILPOINT(site) \
  EVE_RETURN_IF_ERROR(::eve::Failpoints::Instance().Hit(site))

#endif  // EVE_COMMON_FAILPOINT_H_
