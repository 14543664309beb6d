#include "eve/sharded_system.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>

#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/thread_pool.h"
#include "mkb/serializer.h"
#include "sql/parser.h"

namespace eve {

namespace {

constexpr char kManifestHeader[] = "EVESHARDS v1";

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string ShardJournalPath(const std::string& wal_base, size_t shard) {
  return wal_base + ".shard" + std::to_string(shard);
}

std::string ShardCheckpointPath(const std::string& ckpt_base, size_t shard,
                                uint64_t generation) {
  return ckpt_base + ".shard" + std::to_string(shard) + ".g" +
         std::to_string(generation);
}

std::string RenderManifest(size_t shards, uint64_t generation) {
  std::ostringstream os;
  os << kManifestHeader << "\n"
     << "shards " << shards << "\n"
     << "generation " << generation << "\n";
  return os.str();
}

Status ParseManifest(std::string_view text, size_t* shards,
                     uint64_t* generation) {
  std::istringstream is{std::string(text)};
  std::string header;
  if (!std::getline(is, header) || header != kManifestHeader) {
    return Status::ParseError("not a shard manifest");
  }
  std::string word;
  uint64_t n = 0, g = 0;
  if (!(is >> word >> n) || word != "shards" || n == 0) {
    return Status::ParseError("shard manifest missing shard count");
  }
  if (!(is >> word >> g) || word != "generation") {
    return Status::ParseError("shard manifest missing generation");
  }
  *shards = static_cast<size_t>(n);
  *generation = g;
  return Status::OK();
}

Status PoisonedError() {
  return Status::FailedPrecondition(
      "sharded system is poisoned (a commit-phase failure may have left "
      "the shard replicas diverged): recover from the shard journals");
}

bool IsGlobalUnitHead(JournalRecordKind kind) {
  switch (kind) {
    case JournalRecordKind::kApplyChange:
    case JournalRecordKind::kExtendMkb:
    case JournalRecordKind::kRetractConstraint:
    case JournalRecordKind::kRollback:
      return true;
    default:
      return false;
  }
}

// Keeps the records after the LAST kJournalEpoch marker naming
// `generation`. A journal without that marker (generation > 0) is stale:
// a crash hit between the manifest rename and this shard's journal reset,
// so every record it holds is subsumed by the generation's checkpoint.
std::vector<JournalRecord> FilterToEpoch(std::vector<JournalRecord> records,
                                         uint64_t generation, bool* stale) {
  *stale = false;
  if (generation == 0) return records;
  const std::string marker = std::to_string(generation);
  for (size_t i = records.size(); i-- > 0;) {
    if (records[i].kind == JournalRecordKind::kJournalEpoch &&
        records[i].body == marker) {
      return std::vector<JournalRecord>(records.begin() + i + 1,
                                        records.end());
    }
  }
  *stale = true;
  return {};
}

}  // namespace

size_t CompletedGlobalUnits(const std::vector<JournalRecord>& records) {
  size_t units = 0;
  bool in_batch = false;
  for (const JournalRecord& record : records) {
    switch (record.kind) {
      case JournalRecordKind::kBeginBatch:
        in_batch = true;
        break;
      case JournalRecordKind::kCommitBatch:
      case JournalRecordKind::kAbortBatch:
        if (in_batch) ++units;
        in_batch = false;
        break;
      default:
        if (!in_batch && IsGlobalUnitHead(record.kind)) ++units;
        break;
    }
  }
  return units;
}

size_t PrefixEndForUnits(const std::vector<JournalRecord>& records,
                         size_t units) {
  size_t completed = 0;
  bool in_batch = false;
  for (size_t i = 0; i < records.size(); ++i) {
    const JournalRecordKind kind = records[i].kind;
    if (kind == JournalRecordKind::kBeginBatch) {
      if (completed == units) return i;  // the next unit starts here
      in_batch = true;
    } else if (kind == JournalRecordKind::kCommitBatch ||
               kind == JournalRecordKind::kAbortBatch) {
      if (in_batch) ++completed;
      in_batch = false;
    } else if (!in_batch && IsGlobalUnitHead(kind)) {
      if (completed == units) return i;
      ++completed;
    }
  }
  return records.size();
}

ShardedEveSystem::ShardedEveSystem(Mkb mkb, CvsOptions options,
                                   size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  EveSystem seed(std::move(mkb), std::move(options));
  shards_.reserve(shard_count);
  for (size_t i = 0; i + 1 < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(EveSystem(seed)));
  }
  shards_.push_back(std::make_unique<Shard>(std::move(seed)));
  PublishSnapshot();
}

Status ShardedEveSystem::SetShardCount(size_t n) {
  if (n == 0) return Status::InvalidArgument("shard count must be >= 1");
  if (poisoned_) return PoisonedError();
  if (journals_attached()) {
    return Status::FailedPrecondition(
        "cannot reshard with journals attached: the per-shard journal "
        "layout is fixed by the shard count");
  }
  if (NumViews() > 0) {
    return Status::FailedPrecondition(
        "shard count is fixed after the first view registration (views "
        "are placed by hash and cannot be rehashed in place)");
  }
  if (n == shards_.size()) return Status::OK();
  EveSystem seed = shards_[0]->system;
  shards_.clear();
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(EveSystem(seed)));
  }
  PublishSnapshot();
  return Status::OK();
}

void ShardedEveSystem::SetSyncParallelism(size_t threads) {
  for (auto& shard : shards_) shard->system.SetSyncParallelism(threads);
}

void ShardedEveSystem::SetReportUnaffected(bool on) {
  for (auto& shard : shards_) shard->system.SetReportUnaffected(on);
}

void ShardedEveSystem::SetVersioningMode(VersioningMode mode) {
  for (auto& shard : shards_) shard->system.SetVersioningMode(mode);
}

const std::string& ShardedSnapshot::ViewsText(size_t i) const {
  static const std::string kEmpty;
  if (i >= shard_tips.size() || !shard_tips[i]) return kEmpty;
  const auto& segments = shard_tips[i]->segments;
  // VIEWS is always the last of the five segments (kVersionSegmentNames).
  if (segments.size() != kNumVersionSegments) return kEmpty;
  return segments.back()->body;
}

void ShardedEveSystem::PublishSnapshot() {
  auto snapshot = std::make_shared<ShardedSnapshot>();
  snapshot->epoch = ++epoch_;
  snapshot->shard_versions.reserve(shards_.size());
  snapshot->shard_tips.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    PinnedMkb pin = shard->system.PinTip();
    if (!snapshot->mkb) snapshot->mkb = pin.mkb;
    snapshot->shard_versions.push_back(pin.id());
    snapshot->shard_tips.push_back(std::move(pin.version));
  }
  published_->Publish(std::move(snapshot));
}

std::vector<std::string> ShardedEveSystem::ViewNames() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    std::vector<std::string> part = shard->system.ViewNames();
    names.insert(names.end(), part.begin(), part.end());
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t ShardedEveSystem::NumViews() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    total += shard->system.NumViews();
  }
  return total;
}

size_t ShardedEveSystem::NumActiveViews() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    total += shard->system.NumActiveViews();
  }
  return total;
}

Result<const RegisteredView*> ShardedEveSystem::GetView(
    const std::string& name) const {
  const Shard& shard = *shards_[ShardOfView(name)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  return shard.system.GetView(name);
}

std::vector<std::string> ShardedEveSystem::AffectedViews(
    const CapabilityChange& change) const {
  std::vector<std::string> affected;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    std::vector<std::string> part = shard->system.AffectedViews(change);
    affected.insert(affected.end(), part.begin(), part.end());
  }
  std::sort(affected.begin(), affected.end());
  return affected;
}

Status ShardedEveSystem::ExtendMkb(std::string_view misd_text) {
  if (poisoned_) return PoisonedError();
  // Probe on a scratch copy first: a malformed extension must fail before
  // any replica journals or commits.
  {
    Mkb probe = shards_[0]->system.mkb();
    EVE_RETURN_IF_ERROR(AppendMisd(&probe, misd_text));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::shared_mutex> lock(shards_[i]->mu);
    const Status status = shards_[i]->system.ExtendMkb(misd_text);
    if (!status.ok()) {
      if (i > 0) poisoned_ = true;  // a prefix of replicas already advanced
      return status;
    }
  }
  PublishSnapshot();
  return Status::OK();
}

Status ShardedEveSystem::RetractConstraint(const std::string& id) {
  if (poisoned_) return PoisonedError();
  {
    Mkb probe = shards_[0]->system.mkb();
    EVE_RETURN_IF_ERROR(probe.RemoveConstraint(id));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::shared_mutex> lock(shards_[i]->mu);
    const Status status = shards_[i]->system.RetractConstraint(id);
    if (!status.ok()) {
      if (i > 0) poisoned_ = true;
      return status;
    }
  }
  PublishSnapshot();
  return Status::OK();
}

Status ShardedEveSystem::RegisterView(const ViewDefinition& view) {
  if (poisoned_) return PoisonedError();
  Shard& shard = *shards_[ShardOfView(view.name())];
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    EVE_RETURN_IF_ERROR(shard.system.RegisterView(view));
  }
  PublishSnapshot();
  return Status::OK();
}

Status ShardedEveSystem::RegisterViewText(std::string_view text) {
  if (poisoned_) return PoisonedError();
  EVE_ASSIGN_OR_RETURN(const ParsedView parsed, ParseView(text));
  Shard& shard = *shards_[ShardOf(parsed.name, shards_.size())];
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    EVE_RETURN_IF_ERROR(shard.system.RegisterViewText(text));
  }
  PublishSnapshot();
  return Status::OK();
}

Status ShardedEveSystem::RegisterViewsBulk(
    const std::vector<ViewDefinition>& views) {
  if (poisoned_) return PoisonedError();
  // Partition by owning shard, preserving batch order within each shard.
  std::vector<std::vector<ViewDefinition>> per_shard(shards_.size());
  for (const ViewDefinition& view : views) {
    per_shard[ShardOfView(view.name())].push_back(view);
  }
  // Each shard's sub-batch is atomic (one record, one version); the whole
  // call is not atomic ACROSS shards — a failure leaves earlier shards'
  // sub-batches registered. Registrations are shard-local, so the
  // replicas never diverge either way.
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (per_shard[i].empty()) continue;
    std::unique_lock<std::shared_mutex> lock(shards_[i]->mu);
    EVE_RETURN_IF_ERROR(shards_[i]->system.RegisterViewsBulk(per_shard[i]));
  }
  PublishSnapshot();
  return Status::OK();
}

Status ShardedEveSystem::SetViewState(const std::string& name,
                                      ViewState state) {
  if (poisoned_) return PoisonedError();
  Shard& shard = *shards_[ShardOfView(name)];
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    EVE_RETURN_IF_ERROR(shard.system.SetViewState(name, state));
  }
  PublishSnapshot();
  return Status::OK();
}

Result<ChangeReport> ShardedEveSystem::MergeReports(
    const std::vector<ChangeReport>& per_shard) {
  ChangeReport merged;
  merged.change = per_shard[0].change;
  merged.dropped_constraints = per_shard[0].dropped_constraints;
  merged.weakened_constraints = per_shard[0].weakened_constraints;
  for (size_t s = 1; s < per_shard.size(); ++s) {
    if (per_shard[s].dropped_constraints != merged.dropped_constraints ||
        per_shard[s].weakened_constraints != merged.weakened_constraints) {
      return Status::Internal(
          "shard replica divergence: constraint lists disagree across "
          "shards for change " + merged.change.ToString());
    }
  }
  // Reconstruct the single-system outcome order: every unaffected view in
  // name order (a single system pushes them while walking its name-sorted
  // pool map), then every synchronized view in name order.
  std::vector<ViewOutcome> unaffected;
  std::vector<ViewOutcome> synchronized;
  for (const ChangeReport& report : per_shard) {
    for (const ViewOutcome& outcome : report.outcomes) {
      (outcome.kind == ViewOutcomeKind::kUnaffected ? unaffected
                                                    : synchronized)
          .push_back(outcome);
    }
  }
  const auto by_name = [](const ViewOutcome& a, const ViewOutcome& b) {
    return a.view_name < b.view_name;
  };
  std::sort(unaffected.begin(), unaffected.end(), by_name);
  std::sort(synchronized.begin(), synchronized.end(), by_name);
  merged.outcomes = std::move(unaffected);
  merged.outcomes.insert(merged.outcomes.end(),
                         std::make_move_iterator(synchronized.begin()),
                         std::make_move_iterator(synchronized.end()));
  return merged;
}

Result<ChangeReport> ShardedEveSystem::ApplyChangeNoPublish(
    const CapabilityChange& change) {
  if (poisoned_) return PoisonedError();
  const size_t n = shards_.size();
  // Phase 1 — prepare on EVERY shard against its own pinned tip. All
  // failures here are clean: nothing was journaled, nothing committed,
  // on any shard. Prepare is deterministic, so a change that fails on one
  // replica fails identically on all of them.
  std::vector<EveSystem::PreparedChange> prepared;
  prepared.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Result<EveSystem::PreparedChange> p =
        shards_[i]->system.PrepareChange(change);
    if (!p.ok()) return p.status();
    prepared.push_back(p.MoveValue());
  }
  // Phase 2 — commit shard by shard in index order. The exclusive lock
  // covers only the short in-memory swap; the expensive CVS work all
  // happened in phase 1 under no lock.
  std::vector<ChangeReport> per_shard(n);
  std::vector<bool> touched(n, false);
  for (size_t i = 0; i < n; ++i) {
    // Crash here models death mid-fan-out: the change is journaled on a
    // strict prefix of the shard journals, and the recovery barrier
    // truncates every journal back to the pre-change state.
    const Status gate = Failpoints::Instance().Hit(fp::kShardedCommitShard);
    if (!gate.ok()) {
      if (i > 0) poisoned_ = true;
      return gate;
    }
    touched[i] = !prepared[i].affected.empty();
    const uint64_t base = prepared[i].base_version;
    std::unique_lock<std::shared_mutex> lock(shards_[i]->mu);
    Result<ChangeReport> r =
        shards_[i]->system.CommitPrepared(std::move(prepared[i]));
    if (!r.ok()) {
      // Deferred (response-lost) errors commit before surfacing; check
      // the tip to tell them from a genuine pre-commit failure.
      const bool committed = shards_[i]->system.current_version() > base;
      if (committed || i > 0) poisoned_ = true;
      return r.status();
    }
    per_shard[i] = r.MoveValue();
  }
  for (size_t i = 0; i < n; ++i) {
    if (touched[i]) ++shards_[i]->commits;
  }
  Result<ChangeReport> merged = MergeReports(per_shard);
  if (!merged.ok()) poisoned_ = true;
  return merged;
}

Result<ChangeReport> ShardedEveSystem::ApplyChange(
    const CapabilityChange& change) {
  EVE_ASSIGN_OR_RETURN(ChangeReport report, ApplyChangeNoPublish(change));
  // Crash here: every shard journaled the change, so recovery replays to
  // the post state — only the (rebuildable) published pointer is lost. An
  // injected error is deferred past the publish: response lost, state
  // committed.
  const Status publish_hit = Failpoints::Instance().Hit(fp::kShardedPublish);
  PublishSnapshot();
  if (!publish_hit.ok()) return publish_hit;
  return report;
}

Result<std::vector<ChangeReport>> ShardedEveSystem::ApplyChanges(
    const std::vector<CapabilityChange>& changes) {
  if (poisoned_) return PoisonedError();
  const size_t n = shards_.size();
  // Snapshot every shard for the all-shards rollback (COW version chains
  // make the copies cheap relative to a CVS run).
  std::vector<EveSystem> snapshots;
  snapshots.reserve(n);
  std::vector<uint64_t> commit_counts(n);
  for (size_t i = 0; i < n; ++i) {
    snapshots.push_back(shards_[i]->system);
    commit_counts[i] = shards_[i]->commits;
  }
  for (auto& shard : shards_) {
    EVE_RETURN_IF_ERROR(
        shard->system.JournalAppend({JournalRecordKind::kBeginBatch, ""}));
  }
  const auto rollback = [&] {
    for (size_t i = 0; i < n; ++i) {
      std::unique_lock<std::shared_mutex> lock(shards_[i]->mu);
      shards_[i]->system = std::move(snapshots[i]);
      shards_[i]->commits = commit_counts[i];
    }
    poisoned_ = false;  // the rollback restored converged replicas
  };
  const auto abort = [&](const Status& cause) -> Status {
    rollback();
    for (auto& shard : shards_) {
      EVE_RETURN_IF_ERROR(
          shard->system.JournalAppend({JournalRecordKind::kAbortBatch, ""}));
    }
    PublishSnapshot();
    return cause;
  };
  std::vector<ChangeReport> reports;
  reports.reserve(changes.size());
  for (const CapabilityChange& change : changes) {
    Status injected = Status::OK();
    if (!reports.empty()) {
      injected = Failpoints::Instance().Hit(fp::kApplyChangesMidBatch);
    }
    Result<ChangeReport> report = injected.ok()
                                      ? ApplyChangeNoPublish(change)
                                      : Result<ChangeReport>(injected);
    if (!report.ok()) {
      return abort(Status(report.status().code(),
                          "batch aborted at '" + change.ToString() +
                              "': " + report.status().message()));
    }
    reports.push_back(report.MoveValue());
  }
  for (auto& shard : shards_) {
    const Status committed =
        shard->system.JournalAppend({JournalRecordKind::kCommitBatch, ""});
    if (!committed.ok()) {
      // Some journals may already carry their commit marker: those shards
      // would replay the batch, the others would discard it. Replay can
      // no longer be trusted to converge — poison until recovery (whose
      // barrier counts the batch complete only on marker-bearing shards
      // and truncates to the minimum).
      rollback();
      poisoned_ = true;
      return committed;
    }
  }
  PublishSnapshot();
  return reports;
}

Status ShardedEveSystem::EnqueueChange(const CapabilityChange& change) {
  // Whole admission decision under one lock: concurrent submitters each
  // see a consistent submitted/shed/queued_now triple.
  std::lock_guard<std::mutex> lock(*admission_mu_);
  ++admission_stats_.submitted;
  const Status injected = Failpoints::Instance().Hit(fp::kAdmissionEnqueue);
  if (!injected.ok()) {
    ++admission_stats_.shed;
    return injected;
  }
  if (sync_queue_limit_ != 0 && sync_queue_.size() >= sync_queue_limit_) {
    ++admission_stats_.shed;
    return Status::ResourceExhausted(
        "sync queue full (limit " + std::to_string(sync_queue_limit_) +
        "): change shed — drain the queue or raise the limit");
  }
  sync_queue_.push_back(change);
  admission_stats_.queued_now = sync_queue_.size();
  return Status::OK();
}

Result<std::vector<ChangeReport>> ShardedEveSystem::DrainSyncQueue() {
  // Peek under admission_mu_, apply outside it, pop + account afterwards:
  // the in-flight change stays counted as queued until its outcome lands,
  // so submitted == completed + shed + queued_now at every instant an
  // observer can sample. drain_mu_ keeps the front stable across the
  // unlocked apply (only the serialized drainer pops).
  std::lock_guard<std::mutex> drain_lock(*drain_mu_);
  std::vector<ChangeReport> reports;
  while (true) {
    CapabilityChange change;
    {
      std::lock_guard<std::mutex> lock(*admission_mu_);
      if (sync_queue_.empty()) break;
      const Status injected = Failpoints::Instance().Hit(fp::kAdmissionDrain);
      if (!injected.ok()) {
        admission_stats_.queued_now = sync_queue_.size();
        return injected;
      }
      change = sync_queue_.front();
    }
    Result<ChangeReport> report = ApplyChange(change);
    {
      std::lock_guard<std::mutex> lock(*admission_mu_);
      sync_queue_.pop_front();
      ++admission_stats_.completed;
      if (!report.ok()) ++admission_stats_.failed;
      admission_stats_.queued_now = sync_queue_.size();
    }
    if (!report.ok()) return report.status();
    reports.push_back(report.MoveValue());
  }
  return reports;
}

Result<std::vector<ChangeReport>> ShardedEveSystem::DrainSyncQueueParallel() {
  if (poisoned_) return PoisonedError();
  const size_t n = shards_.size();
  if (n <= 1) return DrainSyncQueue();
  // Serialize against other drains, then snapshot the stream. Changes
  // admitted after the snapshot stay queued for the next drain; the
  // snapshot itself stays counted as queued until the accounting below.
  std::lock_guard<std::mutex> drain_lock(*drain_mu_);
  std::vector<CapabilityChange> stream;
  {
    std::lock_guard<std::mutex> lock(*admission_mu_);
    stream.assign(sync_queue_.begin(), sync_queue_.end());
  }
  const size_t m = stream.size();
  if (m == 0) return std::vector<ChangeReport>{};

  // One worker per shard, each applying the SAME change stream in order to
  // its own shard: all order-dependent state is per-shard, so per-shard
  // reports (and their merge) are byte-identical to the sequential drain.
  // slots[s][k] is written only by shard s's worker — no sharing.
  std::vector<std::vector<ChangeReport>> slots(
      n, std::vector<ChangeReport>(m));
  std::vector<std::vector<char>> touched(n, std::vector<char>(m, 0));
  // First change index that must not commit anywhere. Prepare failures are
  // deterministic across replicas (every shard fails the same change), so
  // no shard can commit a change another shard refuses.
  std::atomic<size_t> stop_at{m};
  std::mutex error_mu;
  Status first_error = Status::OK();
  size_t error_at = m;
  const auto record_error = [&](size_t k, const Status& status) {
    size_t expected = stop_at.load(std::memory_order_acquire);
    while (k < expected && !stop_at.compare_exchange_weak(
                               expected, k, std::memory_order_acq_rel)) {
    }
    std::lock_guard<std::mutex> lock(error_mu);
    if (k < error_at) {
      error_at = k;
      first_error = status;
    }
  };
  std::vector<std::exception_ptr> crashes(n);
  std::vector<char> poisons(n, 0);
  ThreadPool drain_pool(n - 1);
  ParallelFor(&drain_pool, n, [&](size_t s) {
    try {
      for (size_t k = 0; k < m; ++k) {
        if (k >= stop_at.load(std::memory_order_acquire)) break;
        if (s == 0) {
          // Admission failpoint parity with the sequential drain: one hit
          // per change, on the shard-0 worker.
          const Status injected =
              Failpoints::Instance().Hit(fp::kAdmissionDrain);
          if (!injected.ok()) {
            record_error(k, injected);
            break;
          }
        }
        Result<EveSystem::PreparedChange> p =
            shards_[s]->system.PrepareChange(stream[k]);
        if (!p.ok()) {
          record_error(k, p.status());
          break;
        }
        if (k >= stop_at.load(std::memory_order_acquire)) break;
        EveSystem::PreparedChange prep = p.MoveValue();
        touched[s][k] = prep.affected.empty() ? 0 : 1;
        std::unique_lock<std::shared_mutex> lock(shards_[s]->mu);
        Result<ChangeReport> r =
            shards_[s]->system.CommitPrepared(std::move(prep));
        if (!r.ok()) {
          // A commit-phase failure is shard-local (journal I/O): other
          // shards may commit this change — divergence until recovery.
          poisons[s] = 1;
          record_error(k, r.status());
          break;
        }
        slots[s][k] = r.MoveValue();
      }
    } catch (...) {
      // Simulated crash: park and rethrow on the caller (lowest shard
      // first) once every worker has drained, like the sync fan-out.
      crashes[s] = std::current_exception();
    }
  });
  for (std::exception_ptr& crash : crashes) {
    if (crash != nullptr) std::rethrow_exception(crash);
  }
  for (size_t s = 0; s < n; ++s) {
    if (poisons[s] != 0) poisoned_ = true;
  }

  const size_t applied = stop_at.load(std::memory_order_acquire);
  std::vector<ChangeReport> merged;
  merged.reserve(applied);
  Status merge_failure = Status::OK();
  for (size_t k = 0; k < applied; ++k) {
    std::vector<ChangeReport> per_shard;
    per_shard.reserve(n);
    for (size_t s = 0; s < n; ++s) per_shard.push_back(std::move(slots[s][k]));
    Result<ChangeReport> one = MergeReports(per_shard);
    if (!one.ok()) {
      poisoned_ = true;
      merge_failure = one.status();
      break;
    }
    merged.push_back(one.MoveValue());
    for (size_t s = 0; s < n; ++s) {
      if (touched[s][k] != 0) ++shards_[s]->commits;
    }
  }
  // Sequential-drain accounting: applied changes completed; a failing
  // change is consumed (completed + failed); the rest stays queued.
  const bool failed = error_at < m;
  const size_t consumed = std::min(m, applied + (failed ? 1 : 0));
  {
    std::lock_guard<std::mutex> lock(*admission_mu_);
    for (size_t k = 0; k < consumed; ++k) sync_queue_.pop_front();
    admission_stats_.completed += consumed;
    if (failed) ++admission_stats_.failed;
    admission_stats_.queued_now = sync_queue_.size();
  }
  PublishSnapshot();
  if (!merge_failure.ok()) return merge_failure;
  if (failed) return first_error;
  return merged;
}

std::vector<ShardStatsRow> ShardedEveSystem::Stats() const {
  // Snapshot the queue once so shard locks are never held while touching
  // admission state (and vice versa).
  std::vector<CapabilityChange> queued;
  {
    std::lock_guard<std::mutex> lock(*admission_mu_);
    queued.assign(sync_queue_.begin(), sync_queue_.end());
  }
  std::vector<ShardStatsRow> rows;
  rows.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardStatsRow row;
    row.shard = i;
    std::shared_lock<std::shared_mutex> lock(shards_[i]->mu);
    row.views = shards_[i]->system.NumViews();
    row.active_views = shards_[i]->system.NumActiveViews();
    row.commits = shards_[i]->commits;
    row.last_synced_version = shards_[i]->system.current_version();
    for (const CapabilityChange& change : queued) {
      if (!shards_[i]->system.AffectedViews(change).empty()) {
        ++row.queue_depth;
      }
    }
    rows.push_back(row);
  }
  return rows;
}

std::string ShardedEveSystem::RenderShardStats() const {
  std::ostringstream os;
  for (const ShardStatsRow& row : Stats()) {
    os << "shard " << row.shard << ": views " << row.views << " ("
       << row.active_views << " active), commits " << row.commits
       << ", queue " << row.queue_depth << ", version "
       << row.last_synced_version << "\n";
  }
  return os.str();
}

Status ShardedEveSystem::AttachJournals(const std::string& wal_base) {
  if (wal_base.empty()) {
    return Status::InvalidArgument("journal base path must be non-empty");
  }
  if (journals_attached()) {
    return Status::FailedPrecondition("journals already attached");
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Result<Journal> opened = Journal::Open(ShardJournalPath(wal_base, i));
    if (!opened.ok()) {
      DetachJournals();
      return opened.status();
    }
    shards_[i]->journal = std::make_unique<Journal>(opened.MoveValue());
    shards_[i]->system.AttachJournal(shards_[i]->journal.get());
  }
  wal_base_ = wal_base;
  return Status::OK();
}

void ShardedEveSystem::DetachJournals() {
  for (auto& shard : shards_) {
    shard->system.AttachJournal(nullptr);
    shard->journal.reset();
  }
  wal_base_.clear();
}

Status ShardedEveSystem::WriteShardedCheckpoint(const std::string& ckpt_base) {
  if (poisoned_) return PoisonedError();
  const uint64_t generation = checkpoint_generation_ + 1;
  // 1. Section files for the NEW generation — old-generation files and the
  // manifest are untouched, so a crash anywhere in this loop is invisible.
  for (size_t i = 0; i < shards_.size(); ++i) {
    EVE_RETURN_IF_ERROR(
        AtomicWriteFile(ShardCheckpointPath(ckpt_base, i, generation),
                        RenderCheckpoint(shards_[i]->system)));
  }
  // 2. The manifest rename is the commit point of the whole checkpoint.
  EVE_FAILPOINT(fp::kShardedCheckpointManifest);
  EVE_RETURN_IF_ERROR(AtomicWriteFile(
      ckpt_base + ".manifest",
      RenderManifest(shards_.size(), generation)));
  checkpoint_generation_ = generation;
  // 3. Reset each journal and stamp the new generation. A crash mid-loop
  // leaves later journals stale (no epoch marker for this generation);
  // recovery detects that and treats their records as subsumed.
  for (size_t i = 0; i < shards_.size(); ++i) {
    EVE_FAILPOINT(fp::kShardedJournalReset);
    if (shards_[i]->journal != nullptr) {
      EVE_RETURN_IF_ERROR(shards_[i]->journal->Reset());
      EVE_RETURN_IF_ERROR(shards_[i]->journal->Append(
          JournalRecordKind::kJournalEpoch, std::to_string(generation)));
    }
  }
  // 4. Best-effort cleanup of the superseded generation's section files.
  if (generation > 1) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      std::remove(
          ShardCheckpointPath(ckpt_base, i, generation - 1).c_str());
    }
  }
  return Status::OK();
}

Status ShardedEveSystem::CheckReplicaConvergence() const {
  const std::string reference = SaveMkb(shards_[0]->system.mkb());
  for (size_t i = 1; i < shards_.size(); ++i) {
    if (SaveMkb(shards_[i]->system.mkb()) != reference) {
      return Status::Internal(
          "shard replica divergence: shard " + std::to_string(i) +
          "'s MKB does not re-render to shard 0's");
    }
  }
  return Status::OK();
}

Result<ShardedEveSystem> ShardedEveSystem::RecoverShardedFromFiles(
    const std::string& ckpt_base, const std::string& wal_base,
    RecoveryReport* report, bool parallel_replay) {
  RecoveryReport local;
  RecoveryReport& out = report != nullptr ? *report : local;

  // The manifest names the shard count and committed checkpoint
  // generation; without one the system never checkpointed and the journals
  // alone (from genesis) are the durable state.
  size_t shard_count = 0;
  uint64_t generation = 0;
  const Result<std::string> manifest =
      ReadFileToString(ckpt_base + ".manifest");
  if (manifest.ok()) {
    EVE_RETURN_IF_ERROR(
        ParseManifest(manifest.value(), &shard_count, &generation));
  } else if (manifest.status().code() != StatusCode::kNotFound) {
    return manifest.status();
  } else {
    while (FileExists(ShardJournalPath(wal_base, shard_count))) {
      ++shard_count;
    }
    if (shard_count == 0) {
      return Status::InvalidArgument(
          "nothing to recover: no manifest at " + ckpt_base +
          ".manifest and no shard journals at " + wal_base + ".shard*");
    }
  }

  // Per-shard: checkpoint text + epoch-filtered journal records.
  std::vector<std::string> checkpoint_texts(shard_count);
  std::vector<std::vector<JournalRecord>> records(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    if (generation > 0) {
      EVE_ASSIGN_OR_RETURN(
          checkpoint_texts[i],
          ReadFileToString(ShardCheckpointPath(ckpt_base, i, generation)));
    }
    EVE_ASSIGN_OR_RETURN(JournalScan scan,
                         ReadJournal(ShardJournalPath(wal_base, i)));
    out.torn_tail = out.torn_tail || scan.torn_tail;
    out.torn_bytes += scan.dropped_bytes;
    bool stale = false;
    records[i] =
        FilterToEpoch(std::move(scan.records), generation, &stale);
    if (stale) {
      out.notes.push_back(
          "shard " + std::to_string(i) +
          ": journal predates checkpoint generation " +
          std::to_string(generation) + " — records subsumed");
    }
  }

  // Cross-shard barrier: truncate every journal to the longest prefix of
  // global units present on ALL shards, so the replicas replay to the
  // same point — the interrupted operation lands wholly before or wholly
  // after recovery, never mixed.
  size_t min_units = SIZE_MAX;
  for (const std::vector<JournalRecord>& shard_records : records) {
    min_units = std::min(min_units, CompletedGlobalUnits(shard_records));
  }
  for (size_t i = 0; i < shard_count; ++i) {
    const size_t keep = PrefixEndForUnits(records[i], min_units);
    if (keep < records[i].size()) {
      out.discarded += records[i].size() - keep;
      out.notes.push_back("shard " + std::to_string(i) + ": truncated " +
                          std::to_string(records[i].size() - keep) +
                          " record(s) past the cross-shard barrier");
      records[i].resize(keep);
    }
  }

  // Replay every shard — concurrently when asked (the shards share no
  // state), serially otherwise; both orders produce byte-identical shards.
  std::vector<std::optional<Result<EveSystem>>> recovered(shard_count);
  std::vector<RecoveryReport> shard_reports(shard_count);
  const auto replay_shard = [&](size_t i) {
    recovered[i].emplace(EveSystem::Recover(checkpoint_texts[i], records[i],
                                            &shard_reports[i]));
  };
  if (parallel_replay && shard_count > 1) {
    ThreadPool replay_pool(shard_count - 1);
    ParallelFor(&replay_pool, shard_count, replay_shard);
  } else {
    for (size_t i = 0; i < shard_count; ++i) replay_shard(i);
  }
  ShardedEveSystem system;
  system.shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    EVE_RETURN_IF_ERROR(recovered[i]->status());
    system.shards_.push_back(
        std::make_unique<Shard>(recovered[i]->MoveValue()));
    out.replayed += shard_reports[i].replayed;
    out.skipped += shard_reports[i].skipped;
    out.discarded += shard_reports[i].discarded;
    for (const std::string& note : shard_reports[i].notes) {
      out.notes.push_back("shard " + std::to_string(i) + ": " + note);
    }
  }
  system.checkpoint_generation_ = generation;
  EVE_RETURN_IF_ERROR(system.CheckReplicaConvergence());

  // Repair the journals on disk to exactly the replayed state (atomic
  // write-temp + rename per shard): barrier-truncated tails and stale
  // pre-checkpoint records are gone, and each journal re-carries its
  // generation marker so the next recovery filters identically.
  for (size_t i = 0; i < shard_count; ++i) {
    std::vector<JournalRecord> repaired;
    repaired.reserve(records[i].size() + 1);
    if (generation > 0) {
      repaired.push_back(JournalRecord{JournalRecordKind::kJournalEpoch,
                                       std::to_string(generation)});
    }
    repaired.insert(repaired.end(), records[i].begin(), records[i].end());
    EVE_RETURN_IF_ERROR(AtomicWriteFile(ShardJournalPath(wal_base, i),
                                        RenderJournalBytes(repaired)));
  }

  system.PublishSnapshot();
  return system;
}

}  // namespace eve
