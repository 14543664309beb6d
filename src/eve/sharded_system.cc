#include "eve/sharded_system.h"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "common/failpoint.h"
#include "mkb/serializer.h"
#include "sql/parser.h"

namespace eve {

namespace {

Status PoisonedError() {
  return Status::FailedPrecondition(
      "sharded system is poisoned (a commit-phase failure may have left "
      "the shard replicas diverged): rebuild it with LOAD MISD");
}

}  // namespace

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
  // any replica commits.
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
  // Each shard's sub-batch is atomic (one version); the whole
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

Result<ChangeReport> ShardedEveSystem::ApplyChange(
    const CapabilityChange& change) {
  if (poisoned_) return PoisonedError();
  const size_t n = shards_.size();
  // Phase 1 — prepare on EVERY shard against its own pinned tip. All
  // failures here are clean: nothing committed on any shard. Prepare is
  // deterministic, so a change that fails on one replica fails identically
  // on all of them.
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
    // A failure here models death mid-fan-out: past shard 0, a strict
    // prefix of the replicas already committed the change, so they have
    // diverged and the system poisons itself.
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
  if (!merged.ok()) {
    poisoned_ = true;
    return merged;
  }
  PublishSnapshot();
  return merged;
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

}  // namespace eve
