#include "net/console.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "algebra/executor.h"
#include "common/file_io.h"
#include "common/str_util.h"
#include "eve/view_pool_io.h"
#include "federation/membership.h"
#include "hypergraph/hypergraph.h"
#include "mkb/serializer.h"

namespace eve {
namespace net {

namespace {

// Splits a statement head into whitespace-separated words (enough for the
// non-SQL commands; CREATE VIEW statements go to the E-SQL parser whole).
std::vector<std::string> SplitWords(const std::string& statement) {
  std::vector<std::string> words;
  std::istringstream is(statement);
  std::string word;
  while (is >> word) words.push_back(word);
  return words;
}

// Strips surrounding single quotes from a path argument.
std::string Unquote(const std::string& word) {
  if (word.size() >= 2 && word.front() == '\'' && word.back() == '\'') {
    return word.substr(1, word.size() - 2);
  }
  return word;
}

// One view block extracted from a pinned VIEWS segment (the SaveViews
// format of view_pool_io.h): the name, the state word, and the CREATE VIEW
// statement exactly as the committing version rendered it.
struct PinnedViewBlock {
  std::string name;
  bool active = true;
  std::string definition;  // without the terminating ';'
};

// Parses the view name from "CREATE VIEW <name> ...", handling the
// printer's double-quote escaping for non-plain identifiers.
std::string PinnedViewName(std::string_view definition) {
  constexpr std::string_view kPrefix = "CREATE VIEW ";
  if (definition.substr(0, kPrefix.size()) != kPrefix) return "";
  std::string_view rest = definition.substr(kPrefix.size());
  if (!rest.empty() && rest[0] == '"') {
    std::string name;
    for (size_t i = 1; i < rest.size(); ++i) {
      if (rest[i] == '"') {
        if (i + 1 < rest.size() && rest[i + 1] == '"') {
          name += '"';
          ++i;
        } else {
          return name;
        }
      } else {
        name += rest[i];
      }
    }
    return name;
  }
  const size_t end = rest.find_first_of(" \t\n(");
  return std::string(rest.substr(0, end));
}

// Extracts the view blocks of one shard's pinned VIEWS segment. Reads only
// the snapshot's immutable bytes — no shard lock, no live-state access.
void AppendPinnedViews(const std::string& text,
                       std::vector<PinnedViewBlock>* out) {
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t header = text.find("-- VIEW ", pos);
    if (header == std::string::npos) break;
    const size_t header_end = text.find('\n', header);
    if (header_end == std::string::npos) break;
    const std::string_view header_rest = Trim(std::string_view(text).substr(
        header + 8, header_end - header - 8));
    size_t next = text.find("-- VIEW ", header_end);
    if (next == std::string::npos) next = text.size();
    std::string body(Trim(std::string_view(text).substr(
        header_end + 1, next - header_end - 1)));
    if (!body.empty() && body.back() == ';') {
      body.pop_back();
      body = std::string(Trim(body));
    }
    PinnedViewBlock block;
    block.active = header_rest.substr(0, 6) != "disabl";
    block.definition = std::move(body);
    block.name = PinnedViewName(block.definition);
    if (!block.name.empty()) out->push_back(std::move(block));
    pos = next;
  }
}

}  // namespace

std::vector<Statement> SplitStatements(const std::string& script) {
  std::vector<Statement> statements;
  std::string current;
  size_t line = 1;           // current line in the script
  size_t start_line = 1;     // line of `current`'s first non-blank char
  const auto bump = [&](char c) {
    if (c == '\n') ++line;
  };
  for (size_t i = 0; i < script.size(); ++i) {
    const char c = script[i];
    if (c == '-' && i + 1 < script.size() && script[i + 1] == '-') {
      while (i < script.size() && script[i] != '\n') ++i;
      if (i < script.size()) bump(script[i]);
      current += ' ';
      continue;
    }
    if (c == '\'' || c == '"') {
      const char quote = c;
      if (Trim(current).empty()) start_line = line;
      current += c;
      ++i;
      while (i < script.size()) {
        bump(script[i]);
        current += script[i];
        if (script[i] == quote) {
          if (quote == '\'' && i + 1 < script.size() &&
              script[i + 1] == '\'') {
            current += script[++i];
          } else {
            break;
          }
        }
        ++i;
      }
      continue;
    }
    if (c == ';') {
      if (!Trim(current).empty()) {
        statements.push_back({std::string(Trim(current)), start_line});
      }
      current.clear();
      continue;
    }
    if (Trim(current).empty() && !std::isspace(static_cast<unsigned char>(c))) {
      start_line = line;
    }
    bump(c);
    current += c;
  }
  if (!Trim(current).empty()) {
    statements.push_back({std::string(Trim(current)), start_line});
  }
  return statements;
}

bool Console::IsSnapshotRead(const std::string& statement) {
  const std::vector<std::string> words = SplitWords(statement);
  if (words.empty() || !EqualsIgnoreCase(words[0], "SHOW")) return false;
  // Exactly the forms answered from the pinned snapshot; the AT VERSION
  // variants read the single system's version chain and are excluded by
  // the size checks.
  if (words.size() == 2 && (EqualsIgnoreCase(words[1], "MKB") ||
                            EqualsIgnoreCase(words[1], "HYPERGRAPH") ||
                            EqualsIgnoreCase(words[1], "VIEWS"))) {
    return true;
  }
  return words.size() == 3 && EqualsIgnoreCase(words[1], "VIEW");
}

bool Console::RunSnapshotRead(const std::string& statement, std::ostream& out,
                              std::ostream& err) const {
  return SnapshotShow(SplitWords(statement), out, err);
}

bool Console::SnapshotShow(const std::vector<std::string>& words,
                           std::ostream& out, std::ostream& err) const {
  // MKB and hypergraph reads answer from the last published snapshot: one
  // atomic pin, no shard locks, stable against concurrent commits.
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "MKB")) {
    out << sharded_.PinPublished()->mkb->ToString();
    return true;
  }
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "HYPERGRAPH")) {
    out << Hypergraph::Build(*sharded_.PinPublished()->mkb).Summary();
    return true;
  }
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "VIEWS")) {
    // Served from the pinned snapshot: one atomic load, then only the
    // snapshot's immutable segment bytes — no shard lock is taken, and
    // the listing is byte-stable across any concurrent commit.
    const auto snapshot = sharded_.PinPublished();
    std::vector<PinnedViewBlock> views;
    for (size_t i = 0; i < sharded_.shard_count(); ++i) {
      AppendPinnedViews(snapshot->ViewsText(i), &views);
    }
    std::sort(views.begin(), views.end(),
              [](const PinnedViewBlock& a, const PinnedViewBlock& b) {
                return a.name < b.name;
              });
    for (const PinnedViewBlock& view : views) {
      out << "  [" << (view.active ? "active" : "DISABLED") << "] "
          << view.name << "\n";
    }
    return true;
  }
  if (words.size() >= 3 && EqualsIgnoreCase(words[1], "VIEW")) {
    // The definition is served from the pinned snapshot (the owning
    // shard's immutable VIEWS segment), lock-free like SHOW VIEWS.
    const auto snapshot = sharded_.PinPublished();
    const size_t shard = sharded_.ShardOfView(words[2]);
    std::vector<PinnedViewBlock> views;
    AppendPinnedViews(snapshot->ViewsText(shard), &views);
    const PinnedViewBlock* found = nullptr;
    for (const PinnedViewBlock& view : views) {
      if (view.name == words[2]) found = &view;
    }
    if (found == nullptr) {
      err << "error: not_found: view not registered: " << words[2] << "\n";
      return false;
    }
    out << found->definition << "\n";
    // History is live provenance (not part of the versioned bytes); it
    // rides along from the owning shard for the console's benefit.
    const Result<const RegisteredView*> view = sharded_.GetView(words[2]);
    if (view.ok()) {
      for (const std::string& event : view.value()->history) {
        out << "  history: " << event << "\n";
      }
    }
    return true;
  }
  err << "error: not a snapshot read\n";
  return false;
}

std::string Console::RenderSnapshotText() const {
  return RenderCheckpoint(sharded_.shard(0));
}

Status Console::InstallSnapshotText(const std::string& text) {
  Result<EveSystem> loaded = LoadCheckpoint(text);
  if (!loaded.ok()) return loaded.status();
  sys() = std::move(loaded.value());
  if (journal_.has_value() && system_journal_attached_) {
    sys().AttachJournal(&*journal_);
  }
  sharded_.PublishSnapshot();
  return Status::OK();
}

Status Console::ApplyReplicatedRecord(const JournalRecord& record,
                                      JournalReplayer* replayer) {
  replayer->Apply(&sys(), record, nullptr);
  sharded_.PublishSnapshot();
  return Status::OK();
}

void Console::SetSystemJournalAttached(bool attached) {
  system_journal_attached_ = attached;
  if (!journal_.has_value()) return;
  sys().AttachJournal(attached ? &*journal_ : nullptr);
}

bool Console::RunWithLimits(const std::string& statement,
                            uint64_t deadline_micros, uint64_t work_budget,
                            std::ostream& out, std::ostream& err) {
  const bool override_deadline = deadline_micros != 0;
  const bool override_budget = work_budget != 0;
  if (override_deadline) {
    ForEachShard([&](EveSystem& s) { s.SetSyncDeadlineMicros(deadline_micros); });
  }
  if (override_budget) {
    ForEachShard([&](EveSystem& s) { s.SetSyncWorkBudget(work_budget); });
  }
  bool ok = false;
  try {
    ok = Run(statement, out, err);
  } catch (...) {
    // A SimulatedCrash must not leave the per-request override behind:
    // the server survives error-mode injections and keeps serving.
    if (override_deadline) {
      ForEachShard(
          [&](EveSystem& s) { s.SetSyncDeadlineMicros(configured_deadline_micros_); });
    }
    if (override_budget) {
      ForEachShard([&](EveSystem& s) { s.SetSyncWorkBudget(configured_work_budget_); });
    }
    throw;
  }
  // Run may itself have executed SET SYNC DEADLINE/WORKBUDGET, updating
  // the configured values — restoring to them is still correct.
  if (override_deadline) {
    ForEachShard(
        [&](EveSystem& s) { s.SetSyncDeadlineMicros(configured_deadline_micros_); });
  }
  if (override_budget) {
    ForEachShard([&](EveSystem& s) { s.SetSyncWorkBudget(configured_work_budget_); });
  }
  return ok;
}

bool Console::Run(const std::string& statement, std::ostream& out,
                  std::ostream& err) {
  out_ = &out;
  err_ = &err;
  const std::vector<std::string> words = SplitWords(statement);
  if (words.empty()) return true;
  const std::string head = ToLower(words[0]);

  if (head == "create") {
    return Report(sharded_.RegisterViewText(statement), statement);
  }
  if (head == "retract" && words.size() >= 2) {
    return Report(sharded_.RetractConstraint(words[1]), statement);
  }
  if (head == "define") {
    const std::string body(Trim(
        std::string_view(statement).substr(std::string("define").size())));
    return Report(sharded_.ExtendMkb(body), statement);
  }
  if (head == "load" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "MISD")) {
    return LoadMisd(Unquote(words[2]));
  }
  if (head == "save" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "MISD")) {
    return SaveMisd(Unquote(words[2]));
  }
  if (head == "load" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "VIEWS")) {
    return LoadViewPool(Unquote(words[2]));
  }
  if (head == "save" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "VIEWS")) {
    return SaveViewPool(Unquote(words[2]));
  }
  if (head == "journal" && words.size() >= 2) {
    return OpenJournal(Unquote(words[1]));
  }
  if (head == "checkpoint" && words.size() >= 2) {
    return Checkpoint(Unquote(words[1]));
  }
  if (head == "recover" && words.size() >= 3) {
    return Recover(Unquote(words[1]), Unquote(words[2]));
  }
  if (head == "set" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "SHARDS")) {
    return SetShards(words[2]);
  }
  if (head == "set" && words.size() >= 4 &&
      EqualsIgnoreCase(words[1], "SYNC")) {
    return SetSync(words[2], words[3]);
  }
  if (head == "set" && words.size() >= 5 &&
      EqualsIgnoreCase(words[1], "SOURCE")) {
    return SetSource(words[2], words[3], words[4]);
  }
  if (head == "track" && words.size() >= 2 &&
      EqualsIgnoreCase(words[1], "SOURCES")) {
    return TrackSources();
  }
  if (head == "fault" && words.size() >= 8 &&
      EqualsIgnoreCase(words[1], "SOURCE") &&
      EqualsIgnoreCase(words[4], "FROM") && EqualsIgnoreCase(words[6], "TO")) {
    return FaultSource(words[2], words[3], words[5], words[7]);
  }
  if (head == "tick" && words.size() >= 2) {
    return Tick(words[1]);
  }
  if (head == "show") {
    return Show(words);
  }
  if (head == "read" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "STALENESS")) {
    // Per-session staleness bound for snapshot reads. On a replicated eved
    // the server intercepts this and gates reads against the replica's
    // lag; the local console has no lag, so the knob is accepted and
    // echoed for script compatibility.
    if (EqualsIgnoreCase(words[2], "NONE")) {
      Out() << "read staleness bound = none\n";
      return true;
    }
    uint64_t bound = 0;
    if (!ParseTicks(words[2], &bound)) return false;
    Out() << "read staleness bound = " << bound << "\n";
    return true;
  }
  if (head == "enqueue" && words.size() >= 4) {
    const std::vector<std::string> rest(words.begin() + 1, words.end());
    const std::string sub = ToLower(rest[0]);
    if (sub == "delete" && rest.size() >= 3) {
      return Enqueue(MakeDelete(rest));
    }
    if (sub == "rename" && rest.size() >= 5 &&
        EqualsIgnoreCase(rest[3], "TO")) {
      return Enqueue(MakeRename(rest));
    }
    Err() << "error: ENQUEUE expects DELETE or RENAME\n";
    return false;
  }
  if (head == "drain") {
    return Drain();
  }
  if (head == "delete" && words.size() >= 3) {
    return Change(MakeDelete(words), /*preview=*/false);
  }
  if (head == "rename" && words.size() >= 5 &&
      EqualsIgnoreCase(words[3], "TO")) {
    return Change(MakeRename(words), /*preview=*/false);
  }
  if (head == "sync" && words.size() >= 5 &&
      EqualsIgnoreCase(words[1], "DRYRUN")) {
    return DryRun(std::vector<std::string>(words.begin() + 2, words.end()));
  }
  if (head == "rollback" && words.size() >= 4 &&
      EqualsIgnoreCase(words[1], "TO") &&
      EqualsIgnoreCase(words[2], "VERSION")) {
    return Rollback(words[3]);
  }
  if (head == "scrub") {
    return Scrub();
  }
  if (head == "preview" && words.size() >= 4) {
    const std::vector<std::string> rest(words.begin() + 1, words.end());
    const std::string sub = ToLower(rest[0]);
    if (sub == "delete" && rest.size() >= 3) {
      return Change(MakeDelete(rest), /*preview=*/true);
    }
    if (sub == "rename" && rest.size() >= 5 &&
        EqualsIgnoreCase(rest[3], "TO")) {
      return Change(MakeRename(rest), /*preview=*/true);
    }
    Err() << "error: PREVIEW expects DELETE or RENAME\n";
    return false;
  }
  Err() << "error: unrecognized statement: " << statement << "\n";
  return false;
}

bool Console::Report(const Status& status, const std::string& context) {
  if (!status.ok()) {
    Err() << "error: " << status << "\n  in: " << context << "\n";
    return false;
  }
  return true;
}

bool Console::RequireSingleShard(const std::string& what) {
  if (sharded_.shard_count() == 1) return true;
  Err() << "error: " << what << " requires SET SHARDS 1 (currently "
        << sharded_.shard_count() << " shards)\n";
  return false;
}

bool Console::SetShards(const std::string& value) {
  uint64_t count = 0;
  if (!ParseTicks(value, &count)) return false;
  if (journal_.has_value()) {
    Err() << "error: SET SHARDS after JOURNAL is not allowed (the journal "
             "is the system's single journal, and durable state is "
             "single-shard)\n";
    return false;
  }
  if (!sys().source_membership().empty()) {
    Err() << "error: SET SHARDS after TRACK SOURCES is not allowed\n";
    return false;
  }
  const Status status = sharded_.SetShardCount(static_cast<size_t>(count));
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "shards = " << count << "\n";
  return true;
}

bool Console::LoadMisd(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Err() << "error: cannot open " << path << "\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Result<Mkb> mkb = LoadMkb(buffer.str());
  if (!mkb.ok()) {
    Err() << "error: " << mkb.status() << "\n";
    return false;
  }
  // Rebuilding keeps the configured shard count: SET SHARDS n; LOAD
  // MISD ...; CREATE VIEW ... is the sharded bring-up sequence.
  sharded_ = ShardedEveSystem(mkb.value(), {}, sharded_.shard_count());
  if (journal_.has_value() && system_journal_attached_) {
    sys().AttachJournal(&*journal_);
  }
  Out() << "loaded " << mkb.value().catalog().NumRelations()
        << " relations, " << mkb.value().join_constraints().size()
        << " join constraints, "
        << mkb.value().function_of_constraints().size()
        << " function-of constraints, " << mkb.value().pc_constraints().size()
        << " PC constraints from " << path << "\n";
  return true;
}

bool Console::SaveMisd(const std::string& path) {
  // The MKB replicas agree byte-for-byte; save from the pinned snapshot.
  const Status status =
      AtomicWriteFile(path, SaveMkb(*sharded_.PinPublished()->mkb));
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "saved MKB to " << path << "\n";
  return true;
}

bool Console::LoadViewPool(const std::string& path) {
  if (!RequireSingleShard("LOAD VIEWS")) return false;
  std::ifstream in(path);
  if (!in) {
    Err() << "error: cannot open " << path << "\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Status status = LoadViews(buffer.str(), &sys());
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  sharded_.PublishSnapshot();
  Out() << "loaded " << sys().NumViews() << " views from " << path << "\n";
  return true;
}

bool Console::SaveViewPool(const std::string& path) {
  if (!RequireSingleShard("SAVE VIEWS")) return false;
  const Status status = AtomicWriteFile(path, SaveViews(sys()));
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "saved " << sys().NumViews() << " views to " << path << "\n";
  return true;
}

bool Console::OpenJournal(const std::string& path) {
  if (!RequireSingleShard("JOURNAL")) return false;
  Result<Journal> journal = Journal::Open(path);
  if (!journal.ok()) {
    Err() << "error: " << journal.status() << "\n";
    return false;
  }
  journal_ = std::move(journal.value());
  if (system_journal_attached_) sys().AttachJournal(&*journal_);
  Out() << "journaling to " << path << "\n";
  return true;
}

bool Console::Checkpoint(const std::string& path) {
  if (!RequireSingleShard("CHECKPOINT")) return false;
  const Status status = WriteCheckpoint(sys(), path);
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  // The checkpoint subsumes the journaled history.
  if (journal_.has_value()) {
    const Status reset = journal_->Reset();
    if (!reset.ok()) {
      Err() << "error: " << reset << "\n";
      return false;
    }
  }
  Out() << "checkpointed to " << path << "\n";
  return true;
}

bool Console::Recover(const std::string& checkpoint_path,
                      const std::string& journal_path) {
  if (!RequireSingleShard("RECOVER")) return false;
  RecoveryReport report;
  Result<EveSystem> recovered =
      RecoverFromFiles(checkpoint_path, journal_path, &report);
  if (!recovered.ok()) {
    Err() << "error: " << recovered.status() << "\n";
    return false;
  }
  sys() = std::move(recovered.value());
  if (journal_.has_value() && system_journal_attached_) {
    sys().AttachJournal(&*journal_);
  }
  sharded_.PublishSnapshot();
  Out() << report.ToString();
  Out() << "recovered " << sys().NumViews() << " views, "
        << sys().mkb().catalog().NumRelations() << " relations\n";
  return true;
}

bool Console::SetSync(const std::string& knob, const std::string& value) {
  uint64_t parsed = 0;
  try {
    parsed = std::stoull(value);
  } catch (...) {
    Err() << "error: SET SYNC " << knob
          << " expects a non-negative integer, got " << value << "\n";
    return false;
  }
  // Per-shard sync knobs fan out to every replica so behavior is uniform
  // no matter which shard a view lands on.
  if (EqualsIgnoreCase(knob, "TOPK")) {
    ForEachShard(
        [&](EveSystem& s) { s.SetSyncTopK(static_cast<size_t>(parsed)); });
    Out() << "sync top-k = " << parsed << "\n";
    return true;
  }
  if (EqualsIgnoreCase(knob, "BUDGET")) {
    ForEachShard([&](EveSystem& s) {
      s.SetSyncCandidateBudget(static_cast<size_t>(parsed));
    });
    Out() << "sync candidate budget = " << parsed << "\n";
    return true;
  }
  if (EqualsIgnoreCase(knob, "PARALLELISM")) {
    sharded_.SetSyncParallelism(static_cast<size_t>(parsed));
    Out() << "sync parallelism = " << parsed << "\n";
    return true;
  }
  if (EqualsIgnoreCase(knob, "WORKBUDGET")) {
    ForEachShard([&](EveSystem& s) { s.SetSyncWorkBudget(parsed); });
    configured_work_budget_ = parsed;
    Out() << "sync work budget = " << parsed << " units/view\n";
    return true;
  }
  if (EqualsIgnoreCase(knob, "DEADLINE")) {
    ForEachShard([&](EveSystem& s) { s.SetSyncDeadlineMicros(parsed); });
    configured_deadline_micros_ = parsed;
    Out() << "sync deadline = " << parsed << " us\n";
    return true;
  }
  if (EqualsIgnoreCase(knob, "WATCHDOG")) {
    ForEachShard([&](EveSystem& s) { s.SetSyncWatchdogMicros(parsed); });
    Out() << "sync watchdog = " << parsed << " us\n";
    return true;
  }
  if (EqualsIgnoreCase(knob, "QUEUE")) {
    sharded_.SetSyncQueueLimit(static_cast<size_t>(parsed));
    Out() << "sync queue limit = " << parsed << "\n";
    return true;
  }
  Err() << "error: SET SYNC expects TOPK, BUDGET, PARALLELISM, "
           "WORKBUDGET, DEADLINE, WATCHDOG or QUEUE\n";
  return false;
}

// A shed change is an EXPECTED admission outcome (the error is explicit,
// the counters account for it), so it does not fail the script; any
// other enqueue error does.
bool Console::Enqueue(const Result<CapabilityChange>& change) {
  if (!change.ok()) {
    Err() << "error: " << change.status() << "\n";
    return false;
  }
  const Status status = sharded_.EnqueueChange(change.value());
  if (status.ok()) {
    Out() << "enqueued (" << sharded_.queued_changes() << " queued)\n";
    return true;
  }
  // Any admission rejection (capacity or an injected fault) is counted
  // as shed by EnqueueChange, so it is an accounted-for outcome.
  Out() << "SHED: " << status << "\n";
  Out() << "admission: " << sharded_.admission_stats().ToString() << "\n";
  return true;
}

bool Console::Drain() {
  const Result<std::vector<ChangeReport>> reports = sharded_.DrainSyncQueue();
  if (!reports.ok()) {
    Err() << "error: " << reports.status() << "\n";
    return false;
  }
  for (const ChangeReport& report : reports.value()) {
    Out() << report.ToString();
  }
  Out() << "admission: " << sharded_.admission_stats().ToString() << "\n";
  return true;
}

bool Console::Show(const std::vector<std::string>& words) {
  if (words.size() >= 3 && EqualsIgnoreCase(words[1], "SHARD") &&
      EqualsIgnoreCase(words[2], "STATS")) {
    Out() << sharded_.RenderShardStats();
    return true;
  }
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "VERSIONS")) {
    if (!RequireSingleShard("SHOW VERSIONS")) return false;
    Out() << sys().versions().Render();
    return true;
  }
  if (words.size() >= 3 && EqualsIgnoreCase(words[1], "SCRUB") &&
      EqualsIgnoreCase(words[2], "STATS")) {
    if (!last_scrub_.has_value()) {
      Out() << "no scrub has run yet (use SCRUB)\n";
      return true;
    }
    Out() << last_scrub_->ToString() << "\n";
    return true;
  }
  if (words.size() >= 5 && EqualsIgnoreCase(words[1], "MKB") &&
      EqualsIgnoreCase(words[2], "AT") &&
      EqualsIgnoreCase(words[3], "VERSION")) {
    if (!RequireSingleShard("SHOW MKB AT VERSION")) return false;
    uint64_t version = 0;
    if (!ParseTicks(words[4], &version)) return false;
    const Result<PinnedMkb> pinned = sys().PinVersion(version);
    if (!pinned.ok()) {
      Err() << "error: " << pinned.status() << "\n";
      return false;
    }
    Out() << "-- version " << pinned.value().id() << "\n"
          << pinned.value().mkb->ToString();
    return true;
  }
  if (words.size() >= 5 && EqualsIgnoreCase(words[1], "VIEWS") &&
      EqualsIgnoreCase(words[2], "AT") &&
      EqualsIgnoreCase(words[3], "VERSION")) {
    if (!RequireSingleShard("SHOW VIEWS AT VERSION")) return false;
    uint64_t version = 0;
    if (!ParseTicks(words[4], &version)) return false;
    const Result<std::string> views = sys().ViewsTextAt(version);
    if (!views.ok()) {
      Err() << "error: " << views.status() << "\n";
      return false;
    }
    Out() << "-- view pool at version " << version << "\n" << views.value();
    return true;
  }
  if (words.size() >= 3 && EqualsIgnoreCase(words[1], "EXECUTOR") &&
      EqualsIgnoreCase(words[2], "STATS")) {
    const ExecutorCounters& counters = GlobalExecutorCounters();
    Out() << "queries: nested_loop " << counters.nested_loop_queries.load()
          << ", vectorized " << counters.vectorized_queries.load()
          << "; cartesian fallbacks "
          << counters.cartesian_fallbacks.load() << "\n";
    return true;
  }
  if (words.size() >= 3 && EqualsIgnoreCase(words[1], "SYNC") &&
      EqualsIgnoreCase(words[2], "STATS")) {
    Out() << "enumeration: " << sys().last_sync_stats().ToString() << "\n";
    // Per-view truncation/deadline lists and watchdog count for the last
    // change or preview (name-ordered, deterministic).
    const std::string diagnostics = sys().last_sync_diagnostics().ToString();
    if (!diagnostics.empty()) Out() << "sync: " << diagnostics << "\n";
    Out() << "admission: " << sharded_.admission_stats().ToString() << "\n";
    return true;
  }
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "SOURCES")) {
    return ShowSources();
  }
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "REPLICATION")) {
    // The replicated server intercepts this before the console; reaching
    // here means the node runs without a replication hub.
    Out() << "replication: disabled\n";
    return true;
  }
  if ((words.size() >= 2 && (EqualsIgnoreCase(words[1], "MKB") ||
                             EqualsIgnoreCase(words[1], "HYPERGRAPH") ||
                             EqualsIgnoreCase(words[1], "VIEWS"))) ||
      (words.size() >= 3 && EqualsIgnoreCase(words[1], "VIEW"))) {
    return SnapshotShow(words, Out(), Err());
  }
  Err() << "error: SHOW expects MKB, HYPERGRAPH, VIEWS, VIEW <name>, "
           "VERSIONS, MKB|VIEWS AT VERSION <n>, SHARD STATS, SCRUB "
           "STATS or SYNC STATS\n";
  return false;
}

// SYNC DRYRUN <change words> [AT VERSION n]: the full what-if pipeline.
bool Console::DryRun(std::vector<std::string> rest) {
  if (!RequireSingleShard("SYNC DRYRUN")) return false;
  std::optional<uint64_t> at_version;
  if (rest.size() >= 3 && EqualsIgnoreCase(rest[rest.size() - 3], "AT") &&
      EqualsIgnoreCase(rest[rest.size() - 2], "VERSION")) {
    uint64_t version = 0;
    if (!ParseTicks(rest.back(), &version)) return false;
    at_version = version;
    rest.resize(rest.size() - 3);
  }
  Result<CapabilityChange> change =
      Status::InvalidArgument("SYNC DRYRUN expects DELETE or RENAME");
  if (rest.size() >= 3 && EqualsIgnoreCase(rest[0], "DELETE")) {
    change = MakeDelete(rest);
  } else if (rest.size() >= 5 && EqualsIgnoreCase(rest[0], "RENAME") &&
             EqualsIgnoreCase(rest[3], "TO")) {
    change = MakeRename(rest);
  }
  if (!change.ok()) {
    Err() << "error: " << change.status() << "\n";
    return false;
  }
  const Result<DryRunReport> report =
      at_version.has_value() ? sys().DryRunChangeAt(change.value(), *at_version)
                             : sys().DryRunChange(change.value());
  if (!report.ok()) {
    Err() << "error: " << report.status() << "\n";
    return false;
  }
  Out() << report.value().ToString();
  return true;
}

bool Console::Rollback(const std::string& version_word) {
  if (!RequireSingleShard("ROLLBACK")) return false;
  uint64_t version = 0;
  if (!ParseTicks(version_word, &version)) return false;
  const Result<uint64_t> committed = sys().RollbackToVersion(version);
  if (!committed.ok()) {
    Err() << "error: " << committed.status() << "\n";
    return false;
  }
  sharded_.PublishSnapshot();
  Out() << "rolled back to version " << version << " (committed as v"
        << committed.value() << ")\n";
  return true;
}

// SCRUB fails the script on any detected corruption, so CI chaos jobs can
// gate on its exit code.
bool Console::Scrub() {
  if (!RequireSingleShard("SCRUB")) return false;
  last_scrub_ = sys().ScrubVersions();
  Out() << last_scrub_->ToString() << "\n";
  if (last_scrub_->corruptions > 0) {
    Err() << "error: scrub found " << last_scrub_->corruptions
          << " corruption(s)\n";
    return false;
  }
  return true;
}

Result<CapabilityChange> Console::MakeDelete(
    const std::vector<std::string>& words) {
  if (EqualsIgnoreCase(words[1], "RELATION")) {
    return CapabilityChange::DeleteRelation(words[2]);
  }
  if (EqualsIgnoreCase(words[1], "ATTRIBUTE")) {
    const std::vector<std::string> parts = Split(words[2], '.');
    if (parts.size() != 2) {
      return Status::InvalidArgument(
          "DELETE ATTRIBUTE expects <relation>.<attribute>");
    }
    return CapabilityChange::DeleteAttribute(parts[0], parts[1]);
  }
  return Status::InvalidArgument("DELETE expects RELATION or ATTRIBUTE");
}

Result<CapabilityChange> Console::MakeRename(
    const std::vector<std::string>& words) {
  if (EqualsIgnoreCase(words[1], "RELATION")) {
    return CapabilityChange::RenameRelation(words[2], words[4]);
  }
  if (EqualsIgnoreCase(words[1], "ATTRIBUTE")) {
    const std::vector<std::string> parts = Split(words[2], '.');
    if (parts.size() != 2) {
      return Status::InvalidArgument(
          "RENAME ATTRIBUTE expects <relation>.<attribute>");
    }
    return CapabilityChange::RenameAttribute(parts[0], parts[1], words[4]);
  }
  return Status::InvalidArgument("RENAME expects RELATION or ATTRIBUTE");
}

// Parses a non-negative integer command argument.
bool Console::ParseTicks(const std::string& word, uint64_t* out) {
  try {
    *out = std::stoull(word);
    return true;
  } catch (...) {
    Err() << "error: expected a non-negative integer, got " << word << "\n";
    return false;
  }
}

// A fresh monitor aligned to the console's federation clock. Stats are
// accumulated per command into fed_stats_.
federation::FederationMonitor Console::MakeMonitor() {
  federation::FederationMonitor monitor(&sys(), &transport_);
  monitor.SetNow(federation_now_);
  return monitor;
}

bool Console::TrackSources() {
  if (!RequireSingleShard("TRACK SOURCES")) return false;
  federation::FederationMonitor monitor = MakeMonitor();
  const Status status = monitor.TrackSources();
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "tracking " << sys().source_membership().size()
        << " sources at tick " << federation_now_ << "\n";
  return true;
}

bool Console::ShowSources() {
  if (!RequireSingleShard("SHOW SOURCES")) return false;
  if (sys().source_membership().empty()) {
    Out() << "no tracked sources (use TRACK SOURCES)\n";
    return true;
  }
  for (const auto& [source, m] : sys().source_membership()) {
    Out() << "  " << source << "  "
          << federation::SourceStateToString(m.state)
          << "  breaker=" << federation::BreakerStateToString(m.breaker)
          << " failures=" << m.consecutive_failures;
    if (m.state == federation::SourceState::kDeparted) {
      Out() << " lease=departed";
    } else if (m.lease_expires > federation_now_) {
      Out() << " lease=+" << (m.lease_expires - federation_now_)
            << " next_probe=+"
            << (m.next_probe > federation_now_ ? m.next_probe - federation_now_
                                               : 0);
    } else {
      Out() << " lease=EXPIRED";
    }
    Out() << "\n";
  }
  return true;
}

bool Console::SetSource(const std::string& source, const std::string& knob,
                        const std::string& value) {
  if (!RequireSingleShard("SET SOURCE")) return false;
  uint64_t ticks = 0;
  if (!ParseTicks(value, &ticks)) return false;
  const std::vector<std::string> sources = sys().mkb().catalog().SourceNames();
  if (std::find(sources.begin(), sources.end(), source) == sources.end()) {
    Err() << "error: unknown source " << source << "\n";
    return false;
  }
  const auto& table = sys().source_membership();
  const auto it = table.find(source);
  federation::SourceMembership m =
      it != table.end() ? it->second
                        : federation::MakeHealthy({}, federation_now_);
  if (EqualsIgnoreCase(knob, "LEASE")) {
    m.config.lease_ticks = ticks;
    m.lease_expires = federation_now_ + ticks;
  } else if (EqualsIgnoreCase(knob, "PROBE")) {
    m.config.probe_interval_ticks = ticks;
    m.next_probe = federation_now_ + ticks;
  } else if (EqualsIgnoreCase(knob, "BREAKER")) {
    m.config.breaker_open_ticks = ticks;
  } else {
    Err() << "error: SET SOURCE expects LEASE, PROBE or BREAKER\n";
    return false;
  }
  const Status status = sys().SetSourceMembership(source, m);
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "source " << source << " " << ToLower(knob) << " = " << ticks
        << " ticks\n";
  return true;
}

bool Console::FaultSource(const std::string& source,
                          const std::string& kind_word,
                          const std::string& from_word,
                          const std::string& to_word) {
  const Result<federation::SimulatedTransport::FaultKind> kind =
      federation::ParseFaultKind(kind_word);
  if (!kind.ok()) {
    Err() << "error: " << kind.status() << "\n";
    return false;
  }
  federation::SimulatedTransport::FaultWindow window;
  if (!ParseTicks(from_word, &window.from) ||
      !ParseTicks(to_word, &window.to)) {
    return false;
  }
  window.kind = kind.value();
  transport_.AddFault(source, window);
  Out() << "fault " << federation::FaultKindToString(window.kind) << " on "
        << source << " for ticks [" << window.from << ", " << window.to
        << ")\n";
  return true;
}

bool Console::Tick(const std::string& count_word) {
  if (!RequireSingleShard("TICK")) return false;
  uint64_t count = 0;
  if (!ParseTicks(count_word, &count)) return false;
  federation::FederationMonitor monitor = MakeMonitor();
  const Status status = monitor.AdvanceTo(federation_now_ + count);
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  federation_now_ += count;
  // Departure cascades committed capability changes on shard 0 directly;
  // republish so snapshot readers see them.
  sharded_.PublishSnapshot();
  const federation::MonitorStats& stats = monitor.stats();
  Out() << "tick " << federation_now_ << ": probes=" << stats.probes
        << " ok=" << stats.successes << " failed=" << stats.failures
        << " transitions=" << stats.state_transitions
        << " departures=" << stats.departures << "\n";
  // A departure ran the SourceLeaves cascade: show its reports.
  if (stats.departures > 0) {
    const auto& log = sys().change_log();
    const size_t shown = std::min<size_t>(log.size(), stats.departures);
    for (size_t i = log.size() - shown; i < log.size(); ++i) {
      Out() << log[i].ToString();
    }
  }
  return true;
}

bool Console::Change(const Result<CapabilityChange>& change, bool preview) {
  if (!change.ok()) {
    Err() << "error: " << change.status() << "\n";
    return false;
  }
  if (preview && !RequireSingleShard("PREVIEW")) return false;
  const Result<ChangeReport> report =
      preview ? sys().PreviewChange(change.value())
              : sharded_.ApplyChange(change.value());
  if (!report.ok()) {
    Err() << "error: " << report.status() << "\n";
    return false;
  }
  if (preview) Out() << "(preview — nothing applied)\n";
  Out() << report.value().ToString();
  // Enumeration counters ride along after the report (never inside it:
  // ChangeReport bytes are journaled/checkpointed and must not change).
  // With several shards the per-shard counters are not meaningful as a
  // single line, so they are only printed in the classic 1-shard mode.
  if (sharded_.shard_count() == 1) {
    const EnumerationStats& stats = sys().last_sync_stats();
    if (stats.combos_generated > 0 || stats.candidates_yielded > 0) {
      Out() << "enumeration: " << stats.ToString() << "\n";
    }
    const std::string diagnostics = sys().last_sync_diagnostics().ToString();
    if (!diagnostics.empty()) Out() << "sync: " << diagnostics << "\n";
  }
  return true;
}

}  // namespace net
}  // namespace eve
