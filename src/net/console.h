// The EVE statement console: parses and executes the ';'-terminated
// command language (LOAD/SAVE, CREATE VIEW, capability changes, admission,
// versioning, federation, journaling — see tools/evectl.cc for the full
// statement reference) against a ShardedEveSystem.
//
// Extracted from evectl so the SAME dispatch serves two front ends:
//  * evectl runs statements from a script file or stdin, writing to the
//    process's stdout/stderr;
//  * eved (net/server.h) runs statements for remote sessions, capturing
//    each statement's output into the response frame.
// Both produce byte-identical output for the same statement stream.
//
// Threading: Run() mutates system state and console-local state; callers
// with concurrent sessions must serialize it (the server holds an
// exclusive lock). RunSnapshotRead() serves the IsSnapshotRead() subset —
// reads answered entirely from the published RCU snapshot — without
// touching any console state, so any number may run concurrently with
// each other (the server holds a shared lock).

#ifndef EVE_NET_CONSOLE_H_
#define EVE_NET_CONSOLE_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/sharded_system.h"
#include "federation/monitor.h"
#include "federation/transport.h"

namespace eve {
namespace net {

// One statement plus the 1-based line where it starts in the script, so
// failures can be reported as "<file>:<line>: ...".
struct Statement {
  std::string text;
  size_t line = 1;
};

// Splits a script into ';'-terminated statements, honoring single-quoted
// strings, double-quoted identifiers, and "--" comments.
std::vector<Statement> SplitStatements(const std::string& script);

class Console {
 public:
  // Executes one statement, writing its report to `out` and diagnostics
  // to `err`. Returns false when the statement failed.
  bool Run(const std::string& statement, std::ostream& out,
           std::ostream& err);

  // Like Run, but with per-request limits: a non-zero deadline/budget is
  // applied to every shard for this statement only, then the console's
  // own configured values (SET SYNC DEADLINE/WORKBUDGET) are restored.
  bool RunWithLimits(const std::string& statement, uint64_t deadline_micros,
                     uint64_t work_budget, std::ostream& out,
                     std::ostream& err);

  // True when `statement` is served read-only from the published snapshot
  // (SHOW MKB / SHOW HYPERGRAPH / SHOW VIEWS / SHOW VIEW <name>, without
  // an AT VERSION clause): safe to run as RunSnapshotRead under a shared
  // lock, concurrently with other snapshot reads.
  static bool IsSnapshotRead(const std::string& statement);

  // Runs an IsSnapshotRead() statement against the current snapshot. Does
  // not mutate console state. Returns false when the statement failed
  // (e.g. SHOW VIEW on an unknown view).
  bool RunSnapshotRead(const std::string& statement, std::ostream& out,
                       std::ostream& err) const;

  // The serving core, exposed for the server's stats/drain plumbing.
  ShardedEveSystem& sharded() { return sharded_; }
  const ShardedEveSystem& sharded() const { return sharded_; }

  // --- Replication plumbing (net/replication.h) ----------------------------
  // All of these require the caller to hold the server's exclusive console
  // lock (except CurrentVersion, which reads one atomic-ish counter and is
  // safe under the shared lock too).

  // The committed version id of shard 0 (the replication unit).
  uint64_t CurrentVersion() const { return sharded_.shard(0).current_version(); }

  // Renders the complete durable state as checkpoint text (the replication
  // bootstrap payload).
  std::string RenderSnapshotText() const;

  // Replaces the in-memory system with a parsed checkpoint and republishes
  // the snapshot. Does NOT touch durable files — the replica agent has
  // already installed them (journal reset + checkpoint write) before
  // calling this.
  Status InstallSnapshotText(const std::string& text);

  // Applies one shipped journal record through `replayer` (batch-buffering,
  // tolerant — the recovery semantics) and republishes the snapshot.
  Status ApplyReplicatedRecord(const JournalRecord& record,
                               JournalReplayer* replayer);

  // The journal opened by JOURNAL <path> (nullptr when none). Replicas
  // append shipped records to it verbatim.
  Journal* attached_journal() { return journal_.has_value() ? &*journal_ : nullptr; }

  // Detach (replica) or reattach (promotion) the journal from the serving
  // system. Detached, local mutations do NOT journal — a replica's journal
  // is written only by the agent, with the primary's exact bytes.
  void SetSystemJournalAttached(bool attached);

 private:
  bool Report(const Status& status, const std::string& context);

  // Shard 0 of a 1-shard system IS the classic single EveSystem; the
  // commands that predate sharding operate on it directly.
  EveSystem& sys() { return sharded_.shard(0); }

  // Sync tuning knobs apply uniformly to every shard replica.
  template <class Fn>
  void ForEachShard(Fn fn) {
    for (size_t i = 0; i < sharded_.shard_count(); ++i) fn(sharded_.shard(i));
  }

  // The shared implementation of the snapshot-read SHOW forms; const and
  // stream-parameterized so the server can run it under a shared lock.
  bool SnapshotShow(const std::vector<std::string>& words, std::ostream& out,
                    std::ostream& err) const;

  // Sharding is in-memory only; the one journal, checkpoint and version
  // chain belong to shard 0 of a 1-shard system. Every statement that
  // reads or writes durable state passes this gate (docs/SHARDING.md).
  bool RequireSingleShard(const std::string& what);
  bool SetShards(const std::string& value);
  bool LoadMisd(const std::string& path);
  bool SaveMisd(const std::string& path);
  bool LoadViewPool(const std::string& path);
  bool SaveViewPool(const std::string& path);
  bool OpenJournal(const std::string& path);
  bool Checkpoint(const std::string& path);
  bool Recover(const std::string& checkpoint_path,
               const std::string& journal_path);
  bool SetSync(const std::string& knob, const std::string& value);
  bool Enqueue(const Result<CapabilityChange>& change);
  bool Drain();
  bool Show(const std::vector<std::string>& words);
  bool DryRun(std::vector<std::string> rest);
  bool Rollback(const std::string& version_word);
  bool Scrub();
  Result<CapabilityChange> MakeDelete(const std::vector<std::string>& words);
  Result<CapabilityChange> MakeRename(const std::vector<std::string>& words);
  bool ParseTicks(const std::string& word, uint64_t* out);
  federation::FederationMonitor MakeMonitor();
  bool TrackSources();
  bool ShowSources();
  bool SetSource(const std::string& source, const std::string& knob,
                 const std::string& value);
  bool FaultSource(const std::string& source, const std::string& kind_word,
                   const std::string& from_word, const std::string& to_word);
  bool Tick(const std::string& count_word);
  bool Change(const Result<CapabilityChange>& change, bool preview);

  // The statement's output streams, valid only inside Run (set on entry).
  std::ostream& Out() { return *out_; }
  std::ostream& Err() { return *err_; }
  std::ostream* out_ = nullptr;
  std::ostream* err_ = nullptr;

  // The serving core. SET SHARDS 1 (the default) delegates to shard 0,
  // which behaves exactly like the classic single EveSystem.
  ShardedEveSystem sharded_{Mkb()};
  std::optional<Journal> journal_;
  // False on a replica: journal_ stays open (the agent appends shipped
  // records) but the serving system must not journal its own replayed
  // mutations on top.
  bool system_journal_attached_ = true;
  std::optional<VersionScrubStats> last_scrub_;
  // Federation console state: one simulated transport and a logical clock
  // that persists across TICK commands (monitors are per-command).
  federation::SimulatedTransport transport_;
  uint64_t federation_now_ = 0;
  // The console-configured sync limits (SET SYNC DEADLINE/WORKBUDGET),
  // mirrored here so RunWithLimits can restore them after a per-request
  // override.
  uint64_t configured_deadline_micros_ = 0;
  uint64_t configured_work_budget_ = 0;
};

}  // namespace net
}  // namespace eve

#endif  // EVE_NET_CONSOLE_H_
