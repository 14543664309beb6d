#include "eve/eve_system.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <optional>
#include <sstream>
#include <thread>

#include "common/failpoint.h"
#include "cvs/explain.h"
#include "esql/binder.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "mkb/evolution.h"
#include "mkb/serializer.h"
#include "sql/parser.h"

namespace eve {

namespace {

// Journal body for view-registration records: "<state>\n<E-SQL text>".
std::string ViewRecordBody(ViewState state, const std::string& text) {
  return std::string(state == ViewState::kActive ? "active" : "disabled") +
         "\n" + text;
}

// Splits a "<word>\n<rest>" journal body.
Status SplitRecordBody(const std::string& body, std::string* head,
                       std::string* rest) {
  const size_t newline = body.find('\n');
  if (newline == std::string::npos) {
    return Status::ParseError("malformed journal record body");
  }
  *head = body.substr(0, newline);
  *rest = body.substr(newline + 1);
  return Status::OK();
}

// Key for the attribute → views index ('\x1f' cannot occur in identifiers).
std::string AttrKey(const std::string& relation, const std::string& attribute) {
  return relation + '\x1f' + attribute;
}

// A count bound (max_cover_combinations, max_extra_relations, candidate
// budget / max results) cut this view's enumeration short: the result may
// be incomplete for a reason other than the top-k bound or the deadline
// token (those stop conditions are reported separately).
bool CountBoundTruncated(const EnumerationStats& stats) {
  if (stats.combos_truncated > 0 || stats.search_sets_cut > 0) return true;
  return !stats.exhausted && !stats.terminated_early && !stats.deadline.partial;
}

// Joins `names` with ", ".
std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

// Strict decimal parse for journal record bodies carrying version ids.
bool ParseDecimalU64(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

std::string SyncDiagnostics::ToString() const {
  std::string out;
  if (!truncated_views.empty()) {
    out += "truncated views: " + JoinNames(truncated_views);
  }
  if (!deadline_views.empty()) {
    if (!out.empty()) out += "; ";
    out += "deadline views: " + JoinNames(deadline_views);
  }
  if (watchdog_cancels > 0) {
    if (!out.empty()) out += "; ";
    out += "watchdog cancels: " + std::to_string(watchdog_cancels);
  }
  return out;
}

size_t ChangeReport::CountOutcome(ViewOutcomeKind kind) const {
  size_t count = 0;
  for (const ViewOutcome& outcome : outcomes) {
    if (outcome.kind == kind) ++count;
  }
  return count;
}

std::string ChangeReport::ToString() const {
  std::ostringstream os;
  os << "change: " << change.ToString() << "\n";
  if (!dropped_constraints.empty()) {
    os << "  dropped constraints:";
    for (const std::string& id : dropped_constraints) os << " " << id;
    os << "\n";
  }
  if (!weakened_constraints.empty()) {
    os << "  weakened constraints:";
    for (const std::string& id : weakened_constraints) os << " " << id;
    os << "\n";
  }
  for (const ViewOutcome& outcome : outcomes) {
    os << "  view " << outcome.view_name << ": ";
    switch (outcome.kind) {
      case ViewOutcomeKind::kUnaffected:
        os << "unaffected";
        break;
      case ViewOutcomeKind::kRewritten:
        os << "rewritten";
        break;
      case ViewOutcomeKind::kDisabled:
        os << "DISABLED";
        break;
    }
    if (!outcome.detail.empty()) os << " — " << outcome.detail;
    if (!outcome.provisional_sources.empty()) {
      os << " [provisional:";
      for (const std::string& source : outcome.provisional_sources) {
        os << " " << source;
      }
      os << "]";
    }
    os << "\n";
  }
  return os.str();
}

std::string RecoveryReport::ToString() const {
  std::ostringstream os;
  os << "recovery: replayed " << replayed << ", skipped " << skipped
     << ", discarded " << discarded;
  if (torn_tail) {
    os << ", journal tail was torn (" << torn_bytes << " byte(s) dropped)";
  }
  os << "\n";
  for (const std::string& note : notes) os << "  " << note << "\n";
  return os.str();
}

std::string DryRunReport::ToString() const {
  std::ostringstream os;
  os << "dry-run against version " << base_version << " (nothing applied)\n"
     << report.ToString();
  const std::string sync = diagnostics.ToString();
  if (!sync.empty()) os << "sync: " << sync << "\n";
  return os.str();
}

EveSystem::EveSystem(Mkb mkb, CvsOptions options)
    : options_(std::move(options)) {
  mkb_tip_ = std::make_shared<const Mkb>(std::move(mkb));
  versions_.Reset(mkb_tip_, SaveViews(*this), "initial");
}

uint64_t EveSystem::CommitVersion(const std::string& change_desc) {
  if (versioning_mode_ == VersioningMode::kMkbOnly) {
    return versions_.CommitSharedViews(mkb_tip_, change_desc);
  }
  return versions_.Commit(mkb_tip_, SaveViews(*this), change_desc);
}

Status EveSystem::JournalAppend(const JournalRecord& record) {
  if (journal_ == nullptr) return Status::OK();
  return journal_->Append(record.kind, record.body);
}

Status EveSystem::ExtendMkb(std::string_view misd_text) {
  Mkb extended = *mkb_tip_;
  EVE_RETURN_IF_ERROR(AppendMisd(&extended, misd_text));
  EVE_RETURN_IF_ERROR(JournalAppend(
      {JournalRecordKind::kExtendMkb, std::string(misd_text)}));
  mkb_tip_ = std::make_shared<const Mkb>(std::move(extended));
  CommitVersion("extend-mkb");
  EVE_FAILPOINT(fp::kExtendMkbAfterJournal);
  return Status::OK();
}

Status EveSystem::RetractConstraint(const std::string& id) {
  Mkb next = *mkb_tip_;
  EVE_RETURN_IF_ERROR(next.RemoveConstraint(id));
  EVE_RETURN_IF_ERROR(
      JournalAppend({JournalRecordKind::kRetractConstraint, id}));
  mkb_tip_ = std::make_shared<const Mkb>(std::move(next));
  CommitVersion("retract " + id);
  EVE_FAILPOINT(fp::kRetractConstraintAfterJournal);
  return Status::OK();
}

Status EveSystem::RegisterView(const ViewDefinition& view) {
  if (view.name().empty()) {
    return Status::InvalidArgument("view needs a non-empty name");
  }
  if (views_.count(view.name()) > 0) {
    return Status::AlreadyExists("view already registered: " + view.name());
  }
  // Re-validate against the current MKB state.
  EVE_ASSIGN_OR_RETURN(ViewDefinition bound,
                       BindView(view.ToParsedView(), mkb().catalog()));
  EVE_RETURN_IF_ERROR(
      JournalAppend({JournalRecordKind::kRegisterView,
                     ViewRecordBody(ViewState::kActive, bound.ToString())}));
  RegisteredView registered;
  registered.definition = std::move(bound);
  // The registration itself commits the version the view is validated
  // against; replay re-stamps the same id because version commits replay
  // deterministically.
  registered.synced_at_version = versions_.NextId();
  const auto [it, inserted] = views_.emplace(view.name(), std::move(registered));
  IndexView(view.name(), it->second.definition);
  CommitVersion("register view " + view.name());
  EVE_FAILPOINT(fp::kRegisterViewAfterJournal);
  return Status::OK();
}

Status EveSystem::RestoreView(ViewDefinition definition, ViewState state,
                              uint64_t synced_at_version) {
  if (definition.name().empty()) {
    return Status::InvalidArgument("view needs a non-empty name");
  }
  if (views_.count(definition.name()) > 0) {
    return Status::AlreadyExists("view already registered: " +
                                 definition.name());
  }
  std::string head(state == ViewState::kActive ? "active" : "disabled");
  if (synced_at_version != 0) {
    head += "@" + std::to_string(synced_at_version);
  }
  EVE_RETURN_IF_ERROR(
      JournalAppend({JournalRecordKind::kRegisterView,
                     head + "\n" + definition.ToString()}));
  const std::string name = definition.name();
  RegisteredView registered;
  registered.definition = std::move(definition);
  registered.state = state;
  registered.synced_at_version = synced_at_version;
  const auto [it, inserted] = views_.emplace(name, std::move(registered));
  IndexView(name, it->second.definition);
  CommitVersion("restore view " + name);
  return Status::OK();
}

Status EveSystem::RegisterViewText(std::string_view text) {
  EVE_ASSIGN_OR_RETURN(const ParsedView parsed, ParseView(text));
  EVE_ASSIGN_OR_RETURN(const ViewDefinition bound,
                       BindView(parsed, mkb().catalog()));
  return RegisterView(bound);
}

Status EveSystem::RegisterViewsBulk(const std::vector<ViewDefinition>& views) {
  if (views.empty()) return Status::OK();
  // Validate and bind the whole batch before journaling anything: a bad
  // view aborts with the system (and the journal) untouched.
  std::vector<ViewDefinition> bound;
  bound.reserve(views.size());
  std::set<std::string> batch_names;
  for (const ViewDefinition& view : views) {
    if (view.name().empty()) {
      return Status::InvalidArgument("view needs a non-empty name");
    }
    if (views_.count(view.name()) > 0 ||
        !batch_names.insert(view.name()).second) {
      return Status::AlreadyExists("view already registered: " + view.name());
    }
    EVE_ASSIGN_OR_RETURN(ViewDefinition rebound,
                         BindView(view.ToParsedView(), mkb().catalog()));
    bound.push_back(std::move(rebound));
  }
  // One record for the whole batch, in the SaveViews block format so
  // replay parses it with the same grammar as checkpoint pools.
  std::string body;
  for (const ViewDefinition& view : bound) {
    body += "-- VIEW active\n";
    body += view.ToString();
    body += ";\n\n";
  }
  EVE_RETURN_IF_ERROR(
      JournalAppend({JournalRecordKind::kRegisterViewsBulk, body}));
  const uint64_t stamp = versions_.NextId();
  for (ViewDefinition& view : bound) {
    const std::string name = view.name();
    RegisteredView registered;
    registered.definition = std::move(view);
    registered.synced_at_version = stamp;
    const auto [it, inserted] = views_.emplace(name, std::move(registered));
    IndexView(name, it->second.definition);
  }
  CommitVersion("register " + std::to_string(bound.size()) + " views (bulk)");
  EVE_FAILPOINT(fp::kRegisterViewAfterJournal);
  return Status::OK();
}

Result<const RegisteredView*> EveSystem::GetView(
    const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view not registered: " + name);
  }
  return &it->second;
}

Status EveSystem::SetViewState(const std::string& name, ViewState state) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view not registered: " + name);
  }
  EVE_RETURN_IF_ERROR(
      JournalAppend({JournalRecordKind::kSetViewState,
                     std::string(state == ViewState::kActive ? "active"
                                                             : "disabled") +
                         "\n" + name}));
  it->second.state = state;
  CommitVersion("set view state " + name);
  return Status::OK();
}

std::vector<std::string> EveSystem::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, view] : views_) names.push_back(name);
  return names;
}

size_t EveSystem::NumActiveViews() const {
  size_t count = 0;
  for (const auto& [name, view] : views_) {
    if (view.state == ViewState::kActive) ++count;
  }
  return count;
}

void EveSystem::IndexView(const std::string& name,
                          const ViewDefinition& definition) {
  for (const std::string& relation : definition.ReferencedRelations()) {
    views_by_relation_[relation].insert(name);
  }
  for (const AttributeRef& ref : definition.ReferencedAttributes()) {
    views_by_attribute_[AttrKey(ref.relation, ref.attribute)].insert(name);
  }
}

void EveSystem::UnindexView(const std::string& name,
                            const ViewDefinition& definition) {
  for (const std::string& relation : definition.ReferencedRelations()) {
    const auto it = views_by_relation_.find(relation);
    if (it == views_by_relation_.end()) continue;
    it->second.erase(name);
    if (it->second.empty()) views_by_relation_.erase(it);
  }
  for (const AttributeRef& ref : definition.ReferencedAttributes()) {
    const auto it =
        views_by_attribute_.find(AttrKey(ref.relation, ref.attribute));
    if (it == views_by_attribute_.end()) continue;
    it->second.erase(name);
    if (it->second.empty()) views_by_attribute_.erase(it);
  }
}

void EveSystem::RebuildViewIndex() {
  views_by_relation_.clear();
  views_by_attribute_.clear();
  for (const auto& [name, view] : views_) IndexView(name, view.definition);
}

std::vector<std::string> EveSystem::AffectedViews(
    const CapabilityChange& change) const {
  std::vector<std::string> affected;
  const std::set<std::string>* candidates = nullptr;
  switch (change.kind) {
    case CapabilityChange::Kind::kDeleteRelation:
    case CapabilityChange::Kind::kRenameRelation: {
      const auto it = views_by_relation_.find(change.relation);
      if (it != views_by_relation_.end()) candidates = &it->second;
      break;
    }
    case CapabilityChange::Kind::kDeleteAttribute:
    case CapabilityChange::Kind::kRenameAttribute: {
      const auto it = views_by_attribute_.find(
          AttrKey(change.relation, change.attribute));
      if (it != views_by_attribute_.end()) candidates = &it->second;
      break;
    }
    case CapabilityChange::Kind::kAddRelation:
    case CapabilityChange::Kind::kAddAttribute:
      break;  // purely additive changes affect no view
  }
  if (candidates == nullptr) return affected;
  affected.reserve(candidates->size());
  for (const std::string& name : *candidates) {  // std::set: name-sorted
    const auto it = views_.find(name);
    if (it != views_.end() && it->second.state == ViewState::kActive) {
      affected.push_back(name);
    }
  }
  return affected;
}

void EveSystem::SetSyncParallelism(size_t threads) {
  sync_parallelism_ = threads;
  if (threads <= 1) {
    sync_pool_.reset();
  } else {
    // The calling thread participates in ParallelFor, so the pool carries
    // one worker fewer than the requested parallelism.
    sync_pool_ = std::make_shared<ThreadPool>(threads - 1);
  }
}

Result<EveSystem::PreparedChange> EveSystem::PrepareChange(
    const CapabilityChange& change) const {
  EVE_FAILPOINT(fp::kApplyChangeBeforeJournal);
  PreparedChange prepared;
  prepared.change = change;
  ChangeReport& report = prepared.report;
  report.change = change;

  // Pin the tip: the whole prepare reads this one immutable version, so a
  // concurrent reader (or the dry-run caller) can never observe a torn MKB.
  const PinnedMkb base = versions_.Tip();
  prepared.base_version = base.id();

  // Step 1: evolve the MKB.
  EVE_ASSIGN_OR_RETURN(MkbEvolutionReport evolution,
                       EvolveMkb(*base.mkb, change));
  report.dropped_constraints = evolution.dropped_constraints;
  report.weakened_constraints = evolution.weakened_constraints;
  EVE_FAILPOINT(fp::kApplyChangeAfterMkbEvolve);

  // Step 2: detect affected views.
  const std::vector<std::string> affected = AffectedViews(change);
  prepared.affected = affected;
  if (options_.report_unaffected) {
    for (const auto& [name, view] : views_) {
      if (view.state != ViewState::kActive) continue;
      const bool is_affected =
          std::binary_search(affected.begin(), affected.end(), name);
      if (!is_affected) {
        report.outcomes.push_back(
            ViewOutcome{name, ViewOutcomeKind::kUnaffected, "", {}});
      }
    }
  }

  // Step 3: synchronize each affected view. All mutations land on a delta
  // map holding just the affected views, so discarding the PreparedChange
  // (the dry-run/abort path) leaves this system untouched and a prepare
  // costs O(affected), not O(pool); the delta, the evolved MKB and the log
  // entry commit together in CommitPrepared.
  //
  // The per-view CVS runs are independent of each other: they read the
  // shared SyncContext (MKB, MKB', and the lazily built join graph of
  // MKB') and write private result slots, so they fan out across the sync
  // pool. Everything order-dependent — outcome assembly, journaling, the
  // commit — happens on this thread in view-name order, making the
  // result byte-identical at any parallelism.
  std::map<std::string, RegisteredView> next_views;
  for (const std::string& name : affected) {
    next_views.emplace(name, views_.at(name));
  }
  prepared.next_mkb = std::make_shared<const Mkb>(std::move(evolution.mkb));
  const SyncContext context(base.mkb, prepared.next_mkb,
                            prepared.base_version);

  // Deadline tokens: one cancellable root per change, one child per
  // affected view. The logical work budget lives on the CHILDREN — each
  // view's token is spent entirely by the thread running that view, so
  // budget stops land on the same enumeration step at any parallelism.
  // Tokens are created here, on the calling thread, in slot (name) order.
  const Clock* clock = sync_clock_ != nullptr ? sync_clock_ : SteadyClock();
  const bool deadline_active = sync_work_budget_ != 0 ||
                               sync_deadline_micros_ != 0 ||
                               sync_watchdog_micros_ != 0;
  DeadlineToken root;
  std::vector<DeadlineToken> tokens(affected.size());
  if (deadline_active) {
    const uint64_t absolute_deadline =
        sync_deadline_micros_ != 0 ? clock->NowMicros() + sync_deadline_micros_
                                   : 0;
    root = DeadlineToken::Root({0, absolute_deadline}, clock);
    for (size_t i = 0; i < affected.size(); ++i) {
      tokens[i] = root.Child({sync_work_budget_, absolute_deadline});
    }
    std::lock_guard<std::mutex> lock(*sync_token_mu_);
    active_sync_token_ = root;
  }

  // Watchdog backstop: always real time, independent of the injected
  // clock — its whole job is to catch a sync wedged while the virtual
  // clock (or a stuck cooperative loop) never advances.
  struct WatchdogState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool fired = false;
  };
  std::shared_ptr<WatchdogState> watchdog_state;
  std::thread watchdog;
  if (deadline_active && sync_watchdog_micros_ != 0) {
    watchdog_state = std::make_shared<WatchdogState>();
    watchdog = std::thread(
        [ws = watchdog_state, watched = root, micros = sync_watchdog_micros_] {
          std::unique_lock<std::mutex> lock(ws->mu);
          if (!ws->cv.wait_for(lock, std::chrono::microseconds(micros),
                               [&] { return ws->done; })) {
            watched.Cancel();
            ws->fired = true;
          }
        });
  }

  std::vector<std::optional<Result<CvsResult>>> slots(affected.size());
  std::vector<std::exception_ptr> crashes(affected.size());
  ParallelFor(sync_pool_.get(), affected.size(), [&](size_t i) {
    try {
      // Cancellation safe point and failpoint at the top of every per-view
      // task: an injected error fails just this view's synchronization; an
      // injected crash is parked here and rethrown on the calling thread
      // (lowest slot first) once the fan-out has drained — tasks must
      // never let exceptions escape into the pool.
      const Status injected = Failpoints::Instance().Hit(fp::kSyncViewStart);
      if (!injected.ok()) {
        slots[i].emplace(injected);
        return;
      }
      CvsOptions view_options = options_;
      view_options.replacement.token = tokens[i];
      slots[i].emplace(Synchronize(views_.at(affected[i]).definition, change,
                                   context, view_options));
    } catch (...) {
      crashes[i] = std::current_exception();
    }
  });
  if (watchdog_state != nullptr) {
    {
      std::lock_guard<std::mutex> lock(watchdog_state->mu);
      watchdog_state->done = true;
    }
    watchdog_state->cv.notify_all();
    watchdog.join();
  }
  if (deadline_active) {
    std::lock_guard<std::mutex> lock(*sync_token_mu_);
    active_sync_token_ = DeadlineToken();
  }
  for (std::exception_ptr& crash : crashes) {
    if (crash != nullptr) std::rethrow_exception(crash);
  }

  EnumerationStats sync_stats;
  sync_stats.exhausted = true;  // MergeFrom ANDs; vacuously true for none
  SyncDiagnostics diagnostics;
  if (watchdog_state != nullptr && watchdog_state->fired) {
    diagnostics.watchdog_cancels = 1;
  }
  for (size_t slot = 0; slot < affected.size(); ++slot) {
    const std::string& name = affected[slot];
    RegisteredView& registered = next_views.at(name);
    EVE_RETURN_IF_ERROR(slots[slot]->status());
    const CvsResult result = slots[slot]->MoveValue();
    sync_stats.MergeFrom(result.enumeration);
    // `affected` is name-sorted, so both lists come out deterministic.
    if (result.enumeration.deadline.partial) {
      diagnostics.deadline_views.push_back(name);
      EVE_FAILPOINT(fp::kSyncDeadlineExpired);
    } else if (CountBoundTruncated(result.enumeration)) {
      diagnostics.truncated_views.push_back(name);
    }
    if (result.ViewPreserved()) {
      const SynchronizedView& best = result.rewritings.front();
      const RewritingExplanation explanation =
          ExplainRewriting(registered.definition, best);
      ViewDefinition rewritten = best.view;
      rewritten.set_name(name);  // keep the registered name
      registered.definition = std::move(rewritten);
      registered.history.push_back("rewritten under " + change.ToString());
      std::string detail = best.is_drop ? "drop-based" : "replacement-based";
      detail += ", extent " + std::string(ExtentRelationToString(
                                  best.legality.inferred_extent));
      if (!explanation.replaced_attributes.empty()) {
        detail += "; replaced " +
                  std::to_string(explanation.replaced_attributes.size()) +
                  " attribute(s)";
      }
      if (!explanation.dropped_attributes.empty()) {
        detail += "; dropped " +
                  std::to_string(explanation.dropped_attributes.size()) +
                  " attribute(s)";
      }
      if (!explanation.added_relations.empty()) {
        detail += "; joined in";
        for (const std::string& rel : explanation.added_relations) {
          detail += " " + rel;
        }
      }
      // Degraded-mode bookkeeping: when the chosen rewriting leans on a
      // SUSPECT/QUARANTINED source, its constraints came from that source's
      // last-known snapshot, so the rewriting is provisional until the
      // source heals (SetSourceMembership clears the marks) or departs.
      const std::vector<std::string> degraded =
          DegradedSourcesOf(registered.definition, prepared.next_mkb->catalog());
      registered.provisional_sources =
          std::set<std::string>(degraded.begin(), degraded.end());
      ViewOutcome outcome{name, ViewOutcomeKind::kRewritten, detail, {}};
      outcome.provisional_sources = degraded;
      report.outcomes.push_back(std::move(outcome));
      prepared.verdicts.emplace(name, best.legality.inferred_extent);
    } else {
      registered.state = ViewState::kDisabled;
      registered.provisional_sources.clear();
      registered.history.push_back("disabled under " + change.ToString());
      std::string detail;
      for (const std::string& diagnostic : result.diagnostics) {
        if (!detail.empty()) detail += "; ";
        detail += diagnostic;
      }
      report.outcomes.push_back(
          ViewOutcome{name, ViewOutcomeKind::kDisabled, detail, {}});
    }
    // Rewritten or disabled, the view was synchronized against `base` and
    // will carry the version this change commits (base + 1).
    registered.synced_at_version = prepared.base_version + 1;
  }
  last_sync_stats_ = sync_stats;
  last_sync_diagnostics_ = std::move(diagnostics);
  prepared.next_views = std::move(next_views);
  EVE_FAILPOINT(fp::kPrepareChangeComplete);
  return prepared;
}

Result<ChangeReport> EveSystem::CommitPrepared(PreparedChange prepared) {
  if (prepared.base_version != versions_.tip_id()) {
    return Status::FailedPrecondition(
        "MKB advanced since prepare: prepared against version " +
        std::to_string(prepared.base_version) + ", tip is " +
        std::to_string(versions_.tip_id()));
  }
  // Write-ahead: the change record must be durable before any of the
  // in-memory state commits.
  EVE_FAILPOINT(fp::kApplyChangeBeforeCommit);
  EVE_RETURN_IF_ERROR(JournalAppend({JournalRecordKind::kApplyChange,
                                     SerializeChange(prepared.change)}));
  // Once the change record is durable, replay WILL commit — so a failure
  // writing the (validation-only) version marker, or an injected ERROR at
  // the swap site, must not stop the in-memory commit: the error is
  // deferred past the swap and models a response lost after commit. A
  // simulated CRASH may throw here: recovery replays to the post state.
  Status deferred =
      JournalAppend({JournalRecordKind::kVersionCommit,
                     std::to_string(prepared.base_version + 1)});
  const Status swap_hit = Failpoints::Instance().Hit(fp::kVersionBeforeSwap);
  if (deferred.ok()) deferred = swap_hit;
  // The materialization hook needs the pre-change definitions after the
  // swap below overwrites them (IncrementalRefresh diffs old vs new).
  std::map<std::string, ViewDefinition> old_defs;
  if (mat_store_ != nullptr && mat_db_ != nullptr) {
    for (const std::string& name : prepared.affected) {
      old_defs.emplace(name, views_.at(name).definition);
    }
  }
  // Re-index the synchronized views: out with the pre-change definitions,
  // in with the rewritten ones (a disabled view keeps its definition and
  // thus its index entries). next_views is a delta of just the affected
  // views; unaffected entries are untouched.
  for (const std::string& name : prepared.affected) {
    UnindexView(name, views_.at(name).definition);
  }
  mkb_tip_ = prepared.next_mkb;
  for (auto& [name, synced] : prepared.next_views) {
    views_.at(name) = std::move(synced);
  }
  for (const std::string& name : prepared.affected) {
    IndexView(name, views_.at(name).definition);
  }
  change_log_.push_back(prepared.report);
  if (prepared.affected.empty() && prepared.next_views.empty()) {
    // No view record changed, so the tip's VIEWS segment is still this
    // pool's exact rendering: share it instead of re-rendering O(pool)
    // bytes. Replica shards whose view partition a change does not touch
    // commit in O(MKB) through this path, which is where the sharded
    // serving core's aggregate commit throughput comes from.
    versions_.CommitSharedViews(mkb_tip_, prepared.change.ToString());
  } else {
    CommitVersion(prepared.change.ToString());
  }
  const Status after = Failpoints::Instance().Hit(fp::kVersionAfterSwap);
  if (deferred.ok()) deferred = after;
  // Post-commit data-plane propagation: the control plane is committed, so
  // a materialization failure is deferred (stale extent, explicit error)
  // rather than rolled back.
  if (mat_store_ != nullptr && mat_db_ != nullptr) {
    const Status mat = SyncMaterialization(prepared, old_defs);
    if (deferred.ok()) deferred = mat;
  }
  // Past this point the change is committed both durably and in memory; an
  // injected error here models a response lost after commit.
  EVE_FAILPOINT(fp::kApplyChangeAfterJournal);
  if (!deferred.ok()) return deferred;
  return std::move(prepared.report);
}

Status EveSystem::SyncMaterialization(
    const PreparedChange& prepared,
    const std::map<std::string, ViewDefinition>& old_defs) {
  // Evolve the base tables first so delta queries and fallback refreshes
  // run against post-change data.
  EVE_RETURN_IF_ERROR(ApplyChangeToDatabase(prepared.change, mat_db_));
  const Catalog& catalog = mkb().catalog();
  Status first = Status::OK();
  for (const std::string& name : prepared.affected) {
    const RegisteredView& view = views_.at(name);
    if (view.state == ViewState::kDisabled) {
      mat_store_->Drop(name);
      continue;
    }
    if (!mat_store_->Has(name)) continue;  // never materialized: stay lazy
    const auto it = prepared.verdicts.find(name);
    const ExtentRelation verdict =
        it == prepared.verdicts.end() ? ExtentRelation::kUnknown : it->second;
    const Status refreshed = mat_store_->IncrementalRefresh(
        old_defs.at(name), view.definition, verdict, *mat_db_, catalog);
    if (first.ok()) first = refreshed;
  }
  return first;
}

Result<ChangeReport> EveSystem::ApplyChange(const CapabilityChange& change) {
  EVE_ASSIGN_OR_RETURN(PreparedChange prepared, PrepareChange(change));
  return CommitPrepared(std::move(prepared));
}

Result<ChangeReport> EveSystem::PreviewChange(
    const CapabilityChange& change) const {
  // The prepare phase IS the preview: full CVS into private state, then
  // the result is discarded instead of committed. No scratch copy, no
  // journal writes, no version churn.
  EVE_ASSIGN_OR_RETURN(PreparedChange prepared, PrepareChange(change));
  return std::move(prepared.report);
}

Result<DryRunReport> EveSystem::DryRunChange(
    const CapabilityChange& change) const {
  EVE_ASSIGN_OR_RETURN(PreparedChange prepared, PrepareChange(change));
  DryRunReport dry;
  dry.base_version = prepared.base_version;
  dry.report = std::move(prepared.report);
  dry.diagnostics = last_sync_diagnostics_;
  return dry;
}

Result<DryRunReport> EveSystem::DryRunChangeAt(const CapabilityChange& change,
                                               uint64_t version) const {
  if (versioning_mode_ == VersioningMode::kMkbOnly &&
      version != versions_.tip_id()) {
    return Status::FailedPrecondition(
        "dry-run at a non-tip version requires full-snapshot versioning "
        "(the store is in MKB-only mode)");
  }
  if (version == versions_.tip_id()) return DryRunChange(change);
  // A what-if against an older version: rehearse the real flow (rollback,
  // then apply) on a scratch copy. The scratch shares the immutable version
  // segments, detaches the journal, and is discarded wholesale.
  EveSystem scratch(*this);
  scratch.journal_ = nullptr;
  EVE_RETURN_IF_ERROR(scratch.RollbackToVersion(version).status());
  EVE_ASSIGN_OR_RETURN(PreparedChange prepared, scratch.PrepareChange(change));
  last_sync_stats_ = scratch.last_sync_stats_;
  last_sync_diagnostics_ = scratch.last_sync_diagnostics_;
  DryRunReport dry;
  // The scratch rollback minted a fresh version id; report the version the
  // caller asked about, since that is whose content the run was based on.
  dry.base_version = version;
  dry.report = std::move(prepared.report);
  dry.diagnostics = last_sync_diagnostics_;
  return dry;
}

Result<uint64_t> EveSystem::RollbackToVersion(uint64_t version) {
  if (versioning_mode_ == VersioningMode::kMkbOnly) {
    return Status::FailedPrecondition(
        "rollback requires full-snapshot versioning (the store is in "
        "MKB-only mode: versions do not retain the view pool)");
  }
  if (!versions_.HasVersion(version)) {
    return Status::NotFound("no retained version " + std::to_string(version) +
                            " (tip is " + std::to_string(versions_.tip_id()) +
                            ")");
  }
  EVE_FAILPOINT(fp::kRollbackBeforeJournal);
  // Stage everything fallible BEFORE the journal append: rebuild the pool
  // in a scratch system bound against the pinned MKB, so a reparse/load
  // failure (or an injected fault inside the loader) aborts with zero side
  // effects and nothing durable. Past the append, the commit is pure
  // pointer/map swaps that cannot fail — memory can never fall behind a
  // durable kRollback record.
  EVE_ASSIGN_OR_RETURN(const PinnedMkb pinned, versions_.Pin(version));
  EVE_ASSIGN_OR_RETURN(const std::string views_text,
                       versions_.ViewsAt(version));
  EveSystem loader(Mkb(*pinned.mkb));
  EVE_RETURN_IF_ERROR(LoadViews(views_text, &loader));
  EVE_RETURN_IF_ERROR(JournalAppend(
      {JournalRecordKind::kRollback, std::to_string(version)}));
  // Journaled but not yet applied: an injected ERROR must still apply
  // (replay would), so it is deferred past the restore; a CRASH throws and
  // recovery replays the rollback.
  Status deferred = Failpoints::Instance().Hit(fp::kRollbackAfterJournal);
  // Surviving views keep their history: SaveViews does not persist it, so
  // the restored pool alone would come back blank. The live map is the
  // deterministic source — replay rebuilds the same histories. They are
  // moved out, not copied: views_ is replaced on the next line.
  std::map<std::string, std::vector<std::string>> histories;
  for (auto& [name, view] : views_) {
    histories.emplace(name, std::move(view.history));
  }
  mkb_tip_ = pinned.mkb;
  views_ = std::move(loader.views_);
  RebuildViewIndex();
  for (auto& [name, view] : views_) {
    const auto it = histories.find(name);
    if (it != histories.end()) view.history = std::move(it->second);
    view.history.push_back("rolled back to version " +
                           std::to_string(version));
  }
  const uint64_t new_version =
      CommitVersion("rollback to version " + std::to_string(version));
  const Status after = Failpoints::Instance().Hit(fp::kRollbackAfterRestore);
  if (deferred.ok()) deferred = after;
  if (!deferred.ok()) return deferred;
  return new_version;
}

VersionScrubStats EveSystem::ScrubVersions() const {
  VersionScrubStats stats = versions_.Scrub();
  // Every view's synced-at stamp must name a retained version.
  for (const auto& [name, view] : views_) {
    if (view.synced_at_version >= versions_.NextId()) {
      ++stats.corruptions;
      stats.findings.push_back(
          "view " + name + ": synced_at_version " +
          std::to_string(view.synced_at_version) +
          " names a version that was never committed (next id " +
          std::to_string(versions_.NextId()) + ")");
    }
  }
  // The live MKB must re-render byte-identically to the tip version's MISD
  // segments — catches a tip pointer / version chain split-brain.
  const std::array<std::string, 4> live = RenderMkbSegments(*mkb_tip_);
  const PinnedMkb tip = versions_.Tip();
  if (tip.version != nullptr && tip.version->segments.size() >= live.size()) {
    for (size_t i = 0; i < live.size(); ++i) {
      const auto& segment = tip.version->segments[i];
      if (segment != nullptr && segment->body != live[i]) {
        ++stats.corruptions;
        stats.findings.push_back("live MKB diverges from tip version " +
                                 std::to_string(tip.id()) + " segment " +
                                 segment->name);
      }
    }
  }
  return stats;
}

Status EveSystem::SetViewSyncedVersion(const std::string& name,
                                       uint64_t version) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view not registered: " + name);
  }
  it->second.synced_at_version = version;
  return Status::OK();
}

Status EveSystem::RestoreVersionStore(MkbVersionStore store) {
  // The checkpoint's MKB section and its VERSIONS tip must agree; view
  // text may legitimately diverge (heal-time provisional un-marking does
  // not commit versions), so only the MKB is cross-checked.
  const PinnedMkb tip = store.Tip();
  if (tip.mkb == nullptr || SaveMkb(*tip.mkb) != SaveMkb(*mkb_tip_)) {
    return Status::ParseError(
        "checkpoint VERSIONS tip does not re-render to the MKB section");
  }
  versions_ = store;
  mkb_tip_ = versions_.Tip().mkb;
  return Status::OK();
}

void EveSystem::CancelActiveSync() const {
  std::lock_guard<std::mutex> lock(*sync_token_mu_);
  active_sync_token_.Cancel();  // no-op on a null token
}

Result<std::vector<ChangeReport>> EveSystem::ApplyChanges(
    const std::vector<CapabilityChange>& changes, bool transactional) {
  // Snapshot for rollback: all state members are value types (the version
  // store copy shares its immutable segments, so it is cheap).
  MkbVersionStore versions_snapshot;
  std::shared_ptr<const Mkb> tip_snapshot;
  std::map<std::string, RegisteredView> views_snapshot;
  std::vector<ChangeReport> log_snapshot;
  if (transactional) {
    versions_snapshot = versions_;
    tip_snapshot = mkb_tip_;
    views_snapshot = views_;
    log_snapshot = change_log_;
    // Bracket the batch so replay discards it unless the commit marker
    // lands: a crash mid-batch recovers to the pre-batch state, mirroring
    // the in-memory rollback below.
    EVE_RETURN_IF_ERROR(
        JournalAppend({JournalRecordKind::kBeginBatch, ""}));
  }
  std::vector<ChangeReport> reports;
  reports.reserve(changes.size());
  for (const CapabilityChange& change : changes) {
    Status injected = Status::OK();
    if (!reports.empty()) {
      injected = Failpoints::Instance().Hit(fp::kApplyChangesMidBatch);
    }
    Result<ChangeReport> report =
        injected.ok() ? ApplyChange(change) : Result<ChangeReport>(injected);
    if (!report.ok()) {
      if (transactional) {
        versions_ = std::move(versions_snapshot);
        mkb_tip_ = std::move(tip_snapshot);
        views_ = std::move(views_snapshot);
        change_log_ = std::move(log_snapshot);
        RebuildViewIndex();
        EVE_RETURN_IF_ERROR(
            JournalAppend({JournalRecordKind::kAbortBatch, ""}));
      }
      return Status(report.status().code(),
                    "batch aborted at '" + change.ToString() +
                        "': " + report.status().message());
    }
    reports.push_back(report.MoveValue());
  }
  if (transactional) {
    const Status committed = JournalAppend({JournalRecordKind::kCommitBatch, ""});
    if (!committed.ok()) {
      // The commit marker never reached disk, so replay will discard the
      // batch; roll back memory to match that outcome.
      versions_ = std::move(versions_snapshot);
      mkb_tip_ = std::move(tip_snapshot);
      views_ = std::move(views_snapshot);
      change_log_ = std::move(log_snapshot);
      RebuildViewIndex();
      return committed;
    }
  }
  return reports;
}

Result<std::vector<ChangeReport>> EveSystem::SourceLeaves(
    const std::string& source) {
  return LeaveCascade(source, /*require_relations=*/true);
}

Result<std::vector<ChangeReport>> EveSystem::DepartSource(
    const std::string& source) {
  return LeaveCascade(source, /*require_relations=*/false);
}

Result<std::vector<ChangeReport>> EveSystem::LeaveCascade(
    const std::string& source, bool require_relations) {
  const std::vector<std::string> relations =
      mkb().catalog().RelationsOfSource(source);
  if (relations.empty() && require_relations) {
    return Status::NotFound("no relations exported by source: " + source);
  }
  // The cascade is one transaction: the per-relation changes (and the
  // DEPARTED membership row of a tracked source) commit together or not at
  // all. Snapshot for rollback — all state members are value types — and
  // bracket the journal records as a batch so a crash mid-cascade replays
  // to the pre-leave state, mirroring the in-memory rollback.
  MkbVersionStore versions_snapshot = versions_;
  std::shared_ptr<const Mkb> tip_snapshot = mkb_tip_;
  std::map<std::string, RegisteredView> views_snapshot = views_;
  std::vector<ChangeReport> log_snapshot = change_log_;
  std::map<std::string, federation::SourceMembership> membership_snapshot =
      membership_;
  const auto rollback = [&] {
    versions_ = std::move(versions_snapshot);
    mkb_tip_ = std::move(tip_snapshot);
    views_ = std::move(views_snapshot);
    change_log_ = std::move(log_snapshot);
    membership_ = std::move(membership_snapshot);
    RebuildViewIndex();
  };
  EVE_RETURN_IF_ERROR(JournalAppend({JournalRecordKind::kBeginBatch, ""}));
  const auto abort = [&](const Status& cause) -> Status {
    rollback();
    EVE_RETURN_IF_ERROR(JournalAppend({JournalRecordKind::kAbortBatch, ""}));
    return cause;
  };
  std::vector<ChangeReport> reports;
  reports.reserve(relations.size());
  for (const std::string& relation : relations) {
    Status injected = Status::OK();
    if (!reports.empty()) {
      injected = Failpoints::Instance().Hit(fp::kSourceLeavesBetweenChanges);
    }
    Result<ChangeReport> report =
        injected.ok() ? ApplyChange(CapabilityChange::DeleteRelation(relation))
                      : Result<ChangeReport>(injected);
    if (!report.ok()) {
      return abort(Status(report.status().code(),
                          "source-leave cascade aborted at '" + relation +
                              "': " + report.status().message()));
    }
    reports.push_back(report.MoveValue());
  }
  if (membership_.count(source) > 0) {
    // The monitor must not keep probing a departed source; the row rides
    // in the batch so it vanishes with a rolled-back cascade.
    federation::SourceMembership departed = membership_.at(source);
    departed.state = federation::SourceState::kDeparted;
    const Status recorded = SetSourceMembership(source, departed);
    if (!recorded.ok()) return abort(recorded);
  }
  const Status late = Failpoints::Instance().Hit(fp::kSourceLeavesBeforeCommit);
  if (!late.ok()) return abort(late);
  const Status committed =
      JournalAppend({JournalRecordKind::kCommitBatch, ""});
  if (!committed.ok()) {
    // The commit marker never reached disk, so replay will discard the
    // batch; roll back memory to match that outcome.
    rollback();
    return committed;
  }
  return reports;
}

Status EveSystem::SetSourceMembership(
    const std::string& source,
    const federation::SourceMembership& membership) {
  if (source.empty()) {
    return Status::InvalidArgument("source needs a non-empty name");
  }
  EVE_RETURN_IF_ERROR(
      JournalAppend({JournalRecordKind::kSourceMembership,
                     federation::SerializeMembership(source, membership)}));
  membership_[source] = membership;
  if (membership.state == federation::SourceState::kHealthy) {
    // The source healed: every rewriting that provisionally leaned on its
    // last-known constraints is now confirmed. Clearing the marks from the
    // live views AND the logged outcomes makes the state converge to what
    // a fault-free run would have produced; replaying the same journal
    // repeats the same un-marking at the same position, so recovery agrees.
    for (auto& [name, view] : views_) view.provisional_sources.erase(source);
    for (ChangeReport& report : change_log_) {
      for (ViewOutcome& outcome : report.outcomes) {
        auto& provisional = outcome.provisional_sources;
        provisional.erase(
            std::remove(provisional.begin(), provisional.end(), source),
            provisional.end());
      }
    }
  }
  EVE_FAILPOINT(fp::kSetMembershipAfterJournal);
  return Status::OK();
}

Status EveSystem::SetViewProvisionalSources(const std::string& name,
                                            std::set<std::string> sources) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view not registered: " + name);
  }
  it->second.provisional_sources = std::move(sources);
  return Status::OK();
}

std::vector<std::string> EveSystem::DegradedSourcesOf(
    const ViewDefinition& definition, const Catalog& catalog) const {
  std::set<std::string> degraded;
  for (const std::string& relation : definition.ReferencedRelations()) {
    const Result<const RelationDef*> def = catalog.GetRelation(relation);
    if (!def.ok()) continue;
    const auto it = membership_.find((*def)->source);
    if (it != membership_.end() && it->second.Degraded()) {
      degraded.insert((*def)->source);
    }
  }
  return std::vector<std::string>(degraded.begin(), degraded.end());
}

Status EveSystem::ReplayRecord(const JournalRecord& record) {
  switch (record.kind) {
    case JournalRecordKind::kExtendMkb:
      return ExtendMkb(record.body);
    case JournalRecordKind::kRetractConstraint:
      return RetractConstraint(record.body);
    case JournalRecordKind::kRegisterView: {
      std::string head, text;
      EVE_RETURN_IF_ERROR(SplitRecordBody(record.body, &head, &text));
      // The state word may carry a "@<synced_at_version>" suffix (restored
      // views whose stamp predates this system's version chain).
      std::string state_word = head;
      uint64_t synced_at = 0;
      const size_t at = head.find('@');
      if (at != std::string::npos) {
        state_word = head.substr(0, at);
        if (!ParseDecimalU64(head.substr(at + 1), &synced_at)) {
          return Status::ParseError("malformed synced-at suffix: " + head);
        }
      }
      if (state_word == "active") {
        EVE_RETURN_IF_ERROR(RegisterViewText(text));
        if (synced_at != 0) {
          EVE_ASSIGN_OR_RETURN(const ParsedView parsed, ParseView(text));
          return SetViewSyncedVersion(parsed.name, synced_at);
        }
        return Status::OK();
      }
      // Disabled views restore verbatim: their definitions may reference
      // capabilities that no longer bind.
      EVE_ASSIGN_OR_RETURN(const ParsedView parsed, ParseView(text));
      EVE_ASSIGN_OR_RETURN(ViewDefinition unbound, BindViewUnchecked(parsed));
      return RestoreView(std::move(unbound), ViewState::kDisabled, synced_at);
    }
    case JournalRecordKind::kRegisterViewsBulk: {
      // The body is the SaveViews block format, active views only. Parse
      // every block, then re-register through RegisterViewsBulk so replay
      // commits exactly one version, like the original call.
      std::vector<ViewDefinition> batch;
      std::string_view text = record.body;
      size_t pos = 0;
      while (pos < text.size()) {
        const size_t header = text.find("-- VIEW ", pos);
        if (header == std::string_view::npos) break;
        const size_t header_end = text.find('\n', header);
        if (header_end == std::string_view::npos) {
          return Status::ParseError("truncated bulk-registration header");
        }
        const size_t body_end = text.find(';', header_end);
        if (body_end == std::string_view::npos) {
          return Status::ParseError(
              "bulk-registration statement missing terminating ';'");
        }
        const std::string_view statement =
            text.substr(header_end + 1, body_end - header_end - 1);
        EVE_ASSIGN_OR_RETURN(const ParsedView parsed, ParseView(statement));
        EVE_ASSIGN_OR_RETURN(ViewDefinition bound,
                             BindView(parsed, mkb().catalog()));
        batch.push_back(std::move(bound));
        pos = body_end + 1;
      }
      return RegisterViewsBulk(batch);
    }
    case JournalRecordKind::kSetViewState: {
      std::string state_word, name;
      EVE_RETURN_IF_ERROR(SplitRecordBody(record.body, &state_word, &name));
      return SetViewState(name, state_word == "active"
                                    ? ViewState::kActive
                                    : ViewState::kDisabled);
    }
    case JournalRecordKind::kApplyChange: {
      EVE_ASSIGN_OR_RETURN(const CapabilityChange change,
                           ParseChange(record.body));
      const Result<ChangeReport> report = ApplyChange(change);
      return report.status();
    }
    case JournalRecordKind::kSourceMembership: {
      EVE_ASSIGN_OR_RETURN(const federation::NamedMembership named,
                           federation::ParseMembership(record.body));
      return SetSourceMembership(named.source, named.membership);
    }
    case JournalRecordKind::kVersionCommit: {
      // Validation marker: the replayed chain must have reached exactly the
      // version the original commit created, else checkpoint and journal
      // come from diverged histories.
      uint64_t expected = 0;
      if (!ParseDecimalU64(record.body, &expected)) {
        return Status::ParseError("malformed version-commit record: " +
                                  record.body);
      }
      if (versions_.tip_id() != expected) {
        return Status::Internal(
            "version divergence on replay: journal committed version " +
            std::to_string(expected) + ", replay reached " +
            std::to_string(versions_.tip_id()));
      }
      return Status::OK();
    }
    case JournalRecordKind::kRollback: {
      uint64_t target = 0;
      if (!ParseDecimalU64(record.body, &target)) {
        return Status::ParseError("malformed rollback record: " + record.body);
      }
      return RollbackToVersion(target).status();
    }
    case JournalRecordKind::kBeginBatch:
    case JournalRecordKind::kCommitBatch:
    case JournalRecordKind::kAbortBatch:
      return Status::Internal("batch marker reached record replay");
  }
  return Status::Internal("unknown journal record kind");
}

Result<EveSystem> EveSystem::Recover(
    std::string_view checkpoint_text,
    const std::vector<JournalRecord>& records, RecoveryReport* report) {
  RecoveryReport local;
  RecoveryReport& out = report != nullptr ? *report : local;
  EVE_ASSIGN_OR_RETURN(EveSystem system, LoadCheckpoint(checkpoint_text));

  // The batch-buffering tolerant replay loop lives in JournalReplayer so
  // replication replicas can run the SAME semantics one record at a time
  // against a live system (see eve/journal.h).
  JournalReplayer replayer;
  for (const JournalRecord& record : records) {
    replayer.Apply(&system, record, &out);
  }
  replayer.Finish(&out);
  return system;
}

}  // namespace eve
