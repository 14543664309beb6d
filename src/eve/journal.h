// Durable change journal + checkpointing for EveSystem (write-ahead
// discipline): every MKB evolution, constraint retraction, view
// registration and capability change is appended to an fsynced,
// CRC32-framed journal BEFORE the in-memory state commits. Recovery loads
// the last checkpoint (written atomically via write-temp + fsync + rename)
// and idempotently replays the journal; a torn final record — the signature
// of a crash mid-append — is detected by its CRC and dropped, recovering to
// the last complete record.
//
// On-disk journal layout:
//   8-byte magic "EVEJRNL1"
//   records: u32 payload_len (LE) | u32 crc32(payload) (LE) | payload
//   payload: 1 byte record kind | body bytes
//
// Batch semantics: transactional ApplyChanges brackets its per-change
// records with kBeginBatch/kCommitBatch (or kAbortBatch on rollback);
// replay buffers a batch and discards it unless the commit marker is
// present, so a crash mid-batch recovers to the pre-batch state.

#ifndef EVE_EVE_JOURNAL_H_
#define EVE_EVE_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "eve/eve_system.h"

namespace eve {

enum class JournalRecordKind : uint8_t {
  kExtendMkb = 1,
  kRetractConstraint = 2,
  kRegisterView = 3,
  kSetViewState = 4,
  kApplyChange = 5,
  kBeginBatch = 6,
  kCommitBatch = 7,
  kAbortBatch = 8,
  // One federation membership row (SerializeMembership line); replays via
  // SetSourceMembership, including its heal-time un-marking side effects.
  kSourceMembership = 9,
  // Marks the version id a kApplyChange commit created (decimal body);
  // replay validates the replayed chain reached the same id, so a
  // checkpoint/journal pair from diverged histories is caught.
  kVersionCommit = 10,
  // RollbackToVersion(n): decimal target version in the body. Replays via
  // RollbackToVersion, committing the restored state as a new version.
  kRollback = 11,
  // Bulk view registration (body: concatenated "-- VIEW active" framed
  // blocks, the SaveViews rendering of the batch). One record + one version
  // commit for N views, so million-view registration is not O(N) fsyncs.
  kRegisterViewsBulk = 12,
  // 13 is retired (a sharded checkpoint-generation marker); never reuse it.
};

struct JournalRecord {
  JournalRecordKind kind;
  std::string body;
};

// Append-only journal file handle. Owns the file descriptor; movable.
class Journal {
 public:
  // Opens `path`, creating it (with the magic header) if absent. Rejects
  // files that do not start with the journal magic.
  static Result<Journal> Open(const std::string& path);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  // Appends one framed record and fsyncs. On return the record is durable.
  Status Append(JournalRecordKind kind, std::string_view body);

  // Durably truncates the journal back to just the magic header — called
  // after a successful checkpoint subsumes the journaled history.
  Status Reset();

  // Called after every SUCCESSFUL (durable) Append with the record just
  // written. The replication hub tails the journal through this hook to
  // ship committed records to replicas in exact journal order; the
  // observer runs on the appending thread, under whatever lock guarded
  // the mutation, so shipped order == journal order by construction.
  using Observer = std::function<void(JournalRecordKind, std::string_view)>;
  void SetObserver(Observer observer) { observer_ = std::move(observer); }

  const std::string& path() const { return path_; }

 private:
  Journal(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  Observer observer_;
};

// Result of scanning journal bytes: the complete CRC-valid record prefix,
// plus how it ended.
struct JournalScan {
  std::vector<JournalRecord> records;
  // True when trailing bytes after the valid prefix were dropped (torn
  // final record or corruption); recovery proceeds from the prefix.
  bool torn_tail = false;
  // How many trailing bytes were dropped — surfaced through
  // RecoveryReport so operators can distinguish clean recovery from
  // truncation.
  size_t dropped_bytes = 0;
};

// Parses raw journal bytes (magic + frames). Never fails on torn or
// corrupted record bytes — the valid prefix is returned and torn_tail set —
// but rejects bytes that are not a journal at all (bad magic).
Result<JournalScan> ScanJournalBytes(std::string_view bytes);

// Incremental journal replay with transactional batch semantics — the
// replay loop of EveSystem::Recover, extracted so it can also run one
// record at a time against a LIVE system (replication replicas apply the
// primary's shipped records through it as they arrive).
//
// Non-batch records apply immediately, tolerantly: a record whose replay
// fails also failed (identically, deterministically) in the original run,
// so skipping reproduces the original outcome. Records inside a
// kBeginBatch/kCommitBatch bracket are buffered and applied only when the
// commit marker arrives; an abort marker or a new begin marker discards
// the buffer — so a stream torn mid-batch never applies a partial batch.
class JournalReplayer {
 public:
  // Feeds one record. `report` (optional) accumulates replayed / skipped /
  // discarded counts and diagnostics.
  void Apply(EveSystem* system, const JournalRecord& record,
             RecoveryReport* report);

  // End-of-stream: discards an uncommitted trailing batch, if any.
  void Finish(RecoveryReport* report);

  // True while a begun batch awaits its commit/abort marker.
  bool in_batch() const { return in_batch_; }

 private:
  void ApplyTolerant(EveSystem* system, const JournalRecord& record,
                     RecoveryReport* report);

  bool in_batch_ = false;
  std::vector<JournalRecord> batch_;
};

// Reads and scans the journal file. A missing file yields an empty scan.
Result<JournalScan> ReadJournal(const std::string& path);

// --- Checkpointing ---------------------------------------------------------

// Renders the complete durable state (MKB in MISD form, view pool, change
// log, federation membership) as one sectioned text document.
std::string RenderCheckpoint(const EveSystem& system);

// The FEDERATION checkpoint section body: one SerializeMembership line per
// tracked source, name-sorted. Exposed for tests comparing durable
// membership state.
std::string SaveFederation(const EveSystem& system);

// Parses a checkpoint document into a fresh system (no journal attached).
Result<EveSystem> LoadCheckpoint(std::string_view text);

// Atomically writes RenderCheckpoint(system) to `path`.
Status WriteCheckpoint(const EveSystem& system, const std::string& path);

// Loads the checkpoint at `checkpoint_path` (a missing file means "start
// empty") and replays the journal at `journal_path` on top. The returned
// system has no journal attached; callers reattach one to continue.
Result<EveSystem> RecoverFromFiles(const std::string& checkpoint_path,
                                   const std::string& journal_path,
                                   RecoveryReport* report = nullptr);

}  // namespace eve

#endif  // EVE_EVE_JOURNAL_H_
