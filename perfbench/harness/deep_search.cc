// deep-search: eved as a child process, driven over loopback by one
// closed-loop writer session and three open-loop snapshot reader sessions
// (four connections, four threads). A handful of views sit over a
// cover-fan MKB with many covers and detours; the writer deletes the
// victim relation (timed) and rolls back to the start version (untimed),
// so every change does the same search work. R-mapping, candidate
// enumeration and legality dominate.

#include <algorithm>
#include <sstream>
#include <thread>

#include "esql/binder.h"
#include "eve/journal.h"
#include "mkb/serializer.h"
#include "net/console.h"
#include "remote.h"
#include "replication_probe.h"
#include "shadow.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct EvedSpec {
  std::string misd;
  std::string views;  // "-- VIEW active" + CREATE VIEW statements
  // The writer's repeated block; "{base}" in a statement stands for the
  // version id the pool has once set up.
  std::vector<Step> block;
  std::vector<std::string> read_views;  // targets of SHOW VIEW
  // Open-loop read rate and the stated p99 limit. The writer keeps the
  // console lock busy nearly all the time, so a read waits for the change
  // in progress; the rate leaves each reader session idle for longer than
  // a change, so reads do not also queue behind each other.
  double read_rate_per_s = 0.0;
  double read_p99_limit_us = 0.0;
};

std::string PoolText(const std::vector<eve::ViewDefinition>& views) {
  std::ostringstream os;
  for (const eve::ViewDefinition& view : views) {
    os << "-- VIEW active\n" << view.ToString() << ";\n\n";
  }
  return os.str();
}

bool BuildDeepSearch(const Args& args, EvedSpec* spec, std::string* error) {
  eve::CoverFanMkbSpec fan;
  fan.num_covers = args.tiny() ? 6 : 12;
  fan.detours = args.tiny() ? 2 : 6;
  fan.equal_pcs = true;
  eve::Result<eve::Mkb> mkb = eve::MakeCoverFanMkb(fan);
  if (!mkb.ok()) {
    *error = mkb.status().ToString();
    return false;
  }
  eve::Result<eve::ViewDefinition> view = eve::MakeCoverFanView(mkb.value());
  if (!view.ok()) {
    *error = view.status().ToString();
    return false;
  }
  std::vector<eve::ViewDefinition> views;
  const size_t copies = 2;
  for (size_t i = 0; i < copies; ++i) {
    eve::ViewDefinition copy = view.value();
    copy.set_name("dv" + std::to_string(i));
    views.push_back(std::move(copy));
  }
  spec->misd = eve::SaveMkb(mkb.value());
  spec->views = PoolText(views);
  spec->block.push_back({"DELETE RELATION R0",
                         eve::CapabilityChange::DeleteRelation("R0"), true});
  spec->block.push_back({"ROLLBACK TO VERSION {base}", std::nullopt, false});
  for (const eve::ViewDefinition& v : views) spec->read_views.push_back(v.name());
  spec->read_rate_per_s = 70.0;
  spec->read_p99_limit_us = 250'000.0;
  // The seed orders the reads; the fan itself is the fixed input shape.
  return true;
}

// The set-up statements eved runs before serving (paths relative to its
// working directory).
constexpr char kInitScript[] =
    "LOAD MISD 'fed.misd';\nLOAD VIEWS 'pool.views';\nJOURNAL 'eved.wal';\n";

// The same federation and pool as statements a replicated primary
// journals and ships: one DEFINE per MISD line, then the views.
std::vector<std::string> SetupStatements(const EvedSpec& spec) {
  std::vector<std::string> statements;
  std::istringstream lines(spec.misd);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line.rfind("--", 0) != 0) {
      statements.push_back("DEFINE " + line);
    }
  }
  for (const eve::net::Statement& s : eve::net::SplitStatements(spec.views)) {
    const size_t at = s.text.find("CREATE VIEW");
    if (at != std::string::npos) statements.push_back(s.text.substr(at));
  }
  return statements;
}

std::string RemoteText(eve::net::NetClient* client, const std::string& stmt,
                       RunResult* result) {
  eve::Result<eve::net::Response> response = client->Run(stmt);
  if (!response.ok() || response.value().code != 0) {
    result->Fail("'" + stmt + "' failed remotely");
    return "";
  }
  return response.value().output;
}

// Set-up takes a few milliseconds, most of it process start, so one
// run's figure follows the machine's load of that moment. Set-ups run in
// two groups, before and after the timed window, and setup_s is the median
// of all of them.
constexpr size_t kSetupsBefore = 30;
constexpr size_t kSetupsAfter = 30;

// Timed changes after which eved's peak resident set is read (about half
// of a 30 s window on a 4-vCPU machine).
constexpr size_t kRssAfterChanges = 600;

// Writes the set-up files into a fresh `dir` and starts `server` on them
// (the user path: eved --init with LOAD MISD, LOAD VIEWS, JOURNAL); records
// the time until it listens.
bool SetUpEved(const Args& args, const EvedSpec& spec, const std::string& dir,
               EvedProcess* server, EndToEnd* e2e, RunResult* result) {
  RemoveTree(dir);
  MakeDirs(dir);
  WriteFile(dir + "/fed.misd", spec.misd);
  WriteFile(dir + "/pool.views", spec.views);
  WriteFile(dir + "/init.evectl", kInitScript);
  server->Stop();
  std::string error;
  const uint64_t start = NowNs();
  if (!server->Start(args.bin_dir + "/eved", dir, "init.evectl", &error)) {
    result->Fail("eved set-up: " + error);
    return false;
  }
  e2e->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  return true;
}

void RunEved(const Args& args, EvedSpec spec, RunResult* result) {
  // --- Set-up: the same user path several times; the last one serves. ---
  EndToEnd e2e;
  EvedProcess server;
  std::string serve_dir;
  for (size_t i = 0; i < kSetupsBefore; ++i) {
    serve_dir = args.work_dir + "/setup" + std::to_string(i);
    if (!SetUpEved(args, spec, serve_dir, &server, &e2e, result)) return;
  }

  eve::Result<eve::net::NetClient> writer = Connect(server.port());
  if (!writer.ok()) {
    result->Fail("connect: " + writer.status().ToString());
    return;
  }
  const std::vector<Step> block_template = spec.block;
  const uint64_t base =
      TipVersion(RemoteText(&writer.value(), "SHOW VERSIONS", result));
  for (Step& step : spec.block) {
    const size_t at = step.statement.find("{base}");
    if (at != std::string::npos) {
      step.statement.replace(at, 6, std::to_string(base));
    }
  }

  size_t timed_per_block = 0;
  for (const Step& step : spec.block) timed_per_block += step.timed ? 1 : 0;

  // --- Warm-up block (discarded), then the timed window. ---
  std::vector<Recorded> log;
  std::string error;
  WriterOptions warm{&spec.block, 0, false, ""};
  if (!RunWriter(&writer.value(), warm, &log, &error)) {
    result->Fail(error);
    return;
  }
  std::vector<std::string> reads;
  for (const std::string& name : spec.read_views) {
    reads.push_back("SHOW VIEW " + name);
  }
  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::vector<ReaderSamples> samples(kReaders);
  std::vector<std::thread> readers;
  std::vector<eve::net::NetClient> reader_clients;
  for (int r = 0; r < kReaders; ++r) {
    eve::Result<eve::net::NetClient> client = Connect(server.port());
    if (!client.ok()) {
      result->Fail("connect: " + client.status().ToString());
      return;
    }
    reader_clients.push_back(client.MoveValue());
  }
  const uint64_t window_start = NowNs();
  const uint64_t window_end =
      window_start + static_cast<uint64_t>(args.seconds * 1e9);
  for (int r = 0; r < kReaders; ++r) {
    ReaderOptions options;
    options.statements = reads;
    options.seed = args.seed * 7919 + static_cast<uint64_t>(r);
    options.rate_per_s = spec.read_rate_per_s / kReaders;
    // Staggered so the readers interleave evenly.
    options.start_ns = window_start + static_cast<uint64_t>(
                                          1e9 / spec.read_rate_per_s * r);
    options.stop = &stop;
    readers.emplace_back(RunReader, &reader_clients[static_cast<size_t>(r)],
                         options, &samples[static_cast<size_t>(r)]);
  }
  // One block per call, until the first block boundary after the window.
  // eved's memory grows with every commit (the version chain never
  // prunes), so rss_mb is its peak once kRssAfterChanges timed changes
  // have committed: a figure for a fixed amount of work, not for however
  // many changes the machine's speed allowed in the window. A run with
  // fewer changes reads it at the end of the window.
  WriterOptions timed{&spec.block, 0, true, serve_dir + "/eved.wal"};
  size_t timed_done = 0;
  bool wrote = true;
  do {
    wrote = RunWriter(&writer.value(), timed, &log, &error);
    timed_done += timed_per_block;
    if (e2e.rss_mb == 0.0 && timed_done >= kRssAfterChanges) {
      e2e.rss_mb = PeakRssMb(server.pid());
    }
  } while (wrote && NowNs() < window_end);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  if (!wrote) {
    result->Fail(error);
    return;
  }
  if (e2e.rss_mb == 0.0) e2e.rss_mb = PeakRssMb(server.pid());
  AccumulateChanges(log, &e2e);
  e2e.read_rate_per_s = spec.read_rate_per_s;
  e2e.read_p99_limit_us = spec.read_p99_limit_us;
  for (const ReaderSamples& s : samples) {
    e2e.read_us.insert(e2e.read_us.end(), s.latency_us.begin(),
                       s.latency_us.end());
    e2e.read_lateness_us.insert(e2e.read_lateness_us.end(),
                                s.lateness_us.begin(), s.lateness_us.end());
    e2e.reads_attempted += s.attempted;
    e2e.reads_failed += s.failed;
  }
  const std::string remote_mkb =
      RemoteText(&writer.value(), "SHOW MKB", result);
  const std::string remote_views =
      RemoteText(&writer.value(), "SHOW VIEWS", result);
  writer.value().Close();
  for (eve::net::NetClient& c : reader_clients) c.Close();
  server.Stop();
  for (size_t i = 0; i < kSetupsAfter; ++i) {
    EvedProcess scratch_server;
    if (!SetUpEved(args, spec,
                   args.work_dir + "/setup_after" + std::to_string(i),
                   &scratch_server, &e2e, result)) {
      return;
    }
  }

  // --- Output checks: in-process Console replay of the same stream. ---
  Tracer tracer(args.trace);
  eve::net::Console console;
  const std::string replay_dir = args.work_dir + "/replay";
  RemoveTree(replay_dir);
  MakeDirs(replay_dir);
  std::string ignored;
  uint64_t load_ns = 0;
  {
    if (!RunLocal(&console, "LOAD MISD '" + serve_dir + "/fed.misd'",
                  &ignored)) {
      result->Fail("replay: LOAD MISD failed");
      return;
    }
    const uint64_t start = NowNs();
    if (!RunLocal(&console, "LOAD VIEWS '" + serve_dir + "/pool.views'",
                  &ignored)) {
      result->Fail("replay: LOAD VIEWS failed");
      return;
    }
    load_ns = NowNs() - start;
    if (!RunLocal(&console, "JOURNAL '" + replay_dir + "/replay.wal'",
                  &ignored)) {
      result->Fail("replay: JOURNAL failed");
      return;
    }
  }
  ShadowCounts shadow_counts;
  std::optional<eve::Journal> scratch;
  if (args.trace) {
    eve::Result<eve::Journal> opened =
        eve::Journal::Open(replay_dir + "/scratch.wal");
    if (opened.ok()) scratch.emplace(opened.MoveValue());
  }
  // Untraced runs replay one measured block; traced runs replay enough
  // blocks for about 60 changes and run the shadow calls before every
  // other one (the Console::Run time of a change is used only when no
  // shadow call preceded it).
  const size_t replay_blocks =
      args.trace ? std::max<size_t>(1, (60 + timed_per_block - 1) /
                                           std::max<size_t>(1, timed_per_block))
                 : 1;
  std::function<bool(const Step&, uint64_t)> on_change;
  std::string shadow_error;
  if (args.trace && scratch.has_value()) {
    on_change = [&](const Step& step, uint64_t op) {
      if (op % 2 != 0) return false;
      eve::EveSystem& system = console.sharded().shard(0);
      if (!ShadowChange(system, *step.change, &*scratch, &tracer, op,
                        &shadow_counts, &shadow_error)) {
        return true;
      }
      eve::Result<eve::ChangeReport> report = [&] {
        ScopedSpan prepare(&tracer, "eve.system.prepare", op, -1, true);
        return system.PreviewChange(*step.change);
      }();
      if (report.ok()) {
        ScopedSpan render(&tracer, "eve.system.report_render", op, -1, true);
        report.value().ToString();
      }
      return true;
    };
  }
  std::vector<ReplayedStep> replayed;
  ReplayAndCompare(&console, log, spec.block.size(), replay_blocks,
                   args.corrupt_output, on_change, &replayed, result);
  if (!shadow_error.empty()) result->Fail("shadow call: " + shadow_error);
  std::ostringstream local_mkb;
  std::ostringstream local_views;
  std::ostringstream sink;
  console.RunSnapshotRead("SHOW MKB", local_mkb, sink);
  console.RunSnapshotRead("SHOW VIEWS", local_views, sink);
  if (local_mkb.str() != remote_mkb || local_views.str() != remote_views) {
    result->Fail("final SHOW MKB / SHOW VIEWS differ from the replay");
  }

  // --- Cross-run identity for this seed. ---
  std::string first_block;
  size_t in_block = 0;
  for (const Recorded& rec : log) {
    if (!rec.measured || in_block == spec.block.size()) continue;
    first_block += rec.output;
    ++in_block;
  }
  std::ostringstream identity;
  identity << "mkb=" << HexDigest(remote_mkb)
           << " views=" << HexDigest(remote_views)
           << " block=" << HexDigest(first_block) << " survival="
           << static_cast<double>(e2e.rewritten_views) /
                  std::max<double>(1.0, static_cast<double>(e2e.affected_views))
           << " truncated_per_change="
           << static_cast<double>(e2e.truncated_views) /
                  std::max<double>(1.0, static_cast<double>(e2e.changes.size()));
  result->Note("identity: " + identity.str());
  CheckIdentity(args, identity.str(), result);

  Finish(e2e, !args.tiny(), result);
  if (!args.trace) return;

  // --- Per-layer metrics (traced run): end-to-end metrics are replaced. ---
  result->metrics.clear();
  std::vector<double> remote_us;
  std::vector<double> local_us;
  std::vector<double> overhead_us;
  std::vector<double> frame_bytes;
  uint64_t appends = 0;
  uint64_t op = 0;
  for (const ReplayedStep& step : replayed) {
    appends += step.journal_appends;
    if (step.shadowed) continue;
    const Recorded& rec = log[step.index];
    const double remote = static_cast<double>(rec.end_ns - rec.start_ns) / 1e3;
    const double local = static_cast<double>(step.console_ns) / 1e3;
    tracer.Add("op.change", op, -1, false, rec.start_ns, rec.end_ns);
    tracer.Add("net.console.run", op, -1, true, 0, step.console_ns);
    remote_us.push_back(remote);
    local_us.push_back(local);
    overhead_us.push_back(remote - local);
    frame_bytes.push_back(static_cast<double>(ShadowFrame(rec, &tracer, op)));
    ++op;
  }
  for (const ReaderSamples& s : samples) {
    for (double us : s.latency_us) {
      tracer.Add("op.read", 0, -1, false, 0, static_cast<uint64_t>(us * 1e3));
    }
  }
  const std::map<std::string, double> shadow_us =
      MeanShadowUs(tracer, shadow_counts.changes);
  auto mean_of = [&](const char* name) {
    auto it = shadow_us.find(name);
    return it == shadow_us.end() ? 0.0 : it->second;
  };
  const double console_mean = Mean(local_us);
  SetShadowMetrics(tracer, shadow_counts, result);
  result->Set("net.protocol.response_bytes", Mean(frame_bytes), "B");
  {
    // Frame shadow time per change.
    const auto totals = tracer.Totals(true);
    auto it = totals.find("net.protocol.frame");
    result->Set("net.protocol.frame_us",
                it == totals.end() || frame_bytes.empty()
                    ? 0.0
                    : static_cast<double>(it->second.total_ns) / 1e3 /
                          static_cast<double>(frame_bytes.size()),
                "us");
  }
  result->Set("net.rtt_overhead_us", Median(overhead_us), "us");
  result->Set("net.console.run_us", console_mean, "us");
  result->Set("eve.system.apply_us", mean_of("eve.system.prepare"), "us");
  result->Set("eve.view_pool_io.load_s", static_cast<double>(load_ns) / 1e9,
              "s");
  result->Set("eve.journal.appends_per_change",
              replayed.empty() ? 0.0
                               : static_cast<double>(appends) /
                                     static_cast<double>(replayed.size()),
              "count");
  result->Set("cvs.truncated_views",
              e2e.changes.empty()
                  ? 0.0
                  : static_cast<double>(e2e.truncated_views) /
                        static_cast<double>(e2e.changes.size()),
              "count");
  const std::vector<std::string> setup_statements = SetupStatements(spec);
  {
    // Parse + bind of every pool view against the loaded MKB (the set-up
    // path's per-view front end).
    const eve::Mkb& mkb = console.sharded().shard(0).mkb();
    size_t views = 0;
    const uint64_t start = NowNs();
    {
      ScopedSpan span(&tracer, "esql.parse_bind", 0, -1, true);
      for (const std::string& text : setup_statements) {
        if (text.rfind("CREATE VIEW", 0) != 0) continue;
        eve::ParseAndBindView(text, mkb.catalog());
        ++views;
      }
    }
    result->Set("esql.parse_bind_us",
                views == 0 ? 0.0
                           : static_cast<double>(NowNs() - start) / 1e3 /
                                 static_cast<double>(views),
                "us");
  }
  {
    // The replication layer, on the same change stream: a primary and a
    // replica waiting for one ack, against a pair that does not wait.
    ReplicationProbe probe;
    std::string error;
    if (!ProbeReplication(setup_statements, block_template, args.seconds / 3,
                          args.work_dir + "/replication", &probe, &error)) {
      result->Fail("replication probe: " + error);
    }
    result->Set("net.replication.ack_wait_us",
                probe.ack1_p50_us - probe.ack0_p50_us, "us");
    result->Set("net.replication.lag_records", probe.lag_records, "count");
    result->Note("replication probe: change p50 " +
                 std::to_string(probe.ack1_p50_us) + " us with one replica ack, " +
                 std::to_string(probe.ack0_p50_us) + " us with ack 0");
  }
  const double remote_mean = Mean(remote_us);
  std::vector<std::pair<std::string, double>> rows;
  rows.push_back({"net (client RTT - Console::Run)", remote_mean - console_mean});
  for (size_t i = 0; i < kNumApplyLayers; ++i) {
    rows.push_back({kApplyLayers[i], mean_of(kApplyLayers[i])});
  }
  rows.push_back({"eve.system.report_render", mean_of("eve.system.report_render")});
  Reconcile("change (remote)", remote_mean, rows, result);
  const double span_ns = SpanCostNs();
  double real_ns = 0.0;
  for (double us : remote_us) real_ns += us * 1e3;
  for (const ReaderSamples& s : samples) {
    for (double us : s.latency_us) real_ns += us * 1e3;
  }
  result->Set("trace.overhead_pct",
              real_ns > 0 ? 100.0 * span_ns *
                                static_cast<double>(tracer.RealSpans()) / real_ns
                          : 0.0,
              "%");
  SetHarnessMetrics(e2e, result);
  NoteSpanTotals(tracer, result);
  tracer.WriteJsonLines(args.work_dir + "/trace.jsonl");
}

}  // namespace

void RunDeepSearch(const Args& args, RunResult* result) {
  EvedSpec spec;
  std::string error;
  if (!BuildDeepSearch(args, &spec, &error)) {
    result->Fail("generate: " + error);
    return;
  }
  RunEved(args, std::move(spec), result);
}

}  // namespace perfbench
