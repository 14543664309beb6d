#include "remote.h"

#include <algorithm>
#include <random>
#include <sstream>
#include <thread>

#include "net/protocol.h"

namespace perfbench {

bool RunWriter(eve::net::NetClient* client, const WriterOptions& options,
               std::vector<Recorded>* log, std::string* error) {
  do {
    for (const Step& step : *options.block) {
      Recorded rec;
      rec.step = &step;
      rec.measured = options.measured;
      const uint64_t wal_before =
          options.wal_path.empty() ? 0 : FileSize(options.wal_path);
      rec.start_ns = NowNs();
      eve::Result<eve::net::Response> response =
          client->Run(step.statement);
      rec.end_ns = NowNs();
      if (!response.ok()) {
        *error = "transport failure on '" + step.statement +
                 "': " + response.status().ToString();
        return false;
      }
      if (!options.wal_path.empty()) {
        rec.wal_bytes = FileSize(options.wal_path) - wal_before;
      }
      rec.output = std::move(response.value().output);
      rec.error = std::move(response.value().error);
      rec.code = response.value().code;
      log->push_back(std::move(rec));
    }
  } while (NowNs() < options.until_ns);
  return true;
}

void RunReader(eve::net::NetClient* client, const ReaderOptions& options,
               ReaderSamples* samples) {
  RunOpenLoop(
      options,
      [client](const std::string& statement) {
        eve::Result<eve::net::Response> response = client->Run(statement);
        return response.ok() && response.value().code == 0 &&
               !response.value().output.empty();
      },
      samples);
}

void RunOpenLoop(const ReaderOptions& options,
                 const std::function<bool(const std::string&)>& read,
                 ReaderSamples* samples) {
  // A sleeping thread wakes late (timer slack, scheduling), and a read is
  // timed from its due time; so the generator sleeps until kSpinNs before
  // the due time and spins the rest, keeping its own lateness out of the
  // read latency.
  constexpr uint64_t kSpinNs = 300'000;
  std::mt19937_64 rng(options.seed);
  const double period_ns = 1e9 / options.rate_per_s;
  for (uint64_t k = 0;; ++k) {
    const uint64_t due =
        options.start_ns + static_cast<uint64_t>(period_ns * static_cast<double>(k));
    while (true) {
      if (options.stop->load(std::memory_order_relaxed)) return;
      const uint64_t now = NowNs();
      if (now >= due) break;
      const uint64_t wait = due - now;
      if (wait > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<uint64_t>(wait - kSpinNs, 1'000'000)));
      }
    }
    const std::string& statement =
        options.statements[rng() % options.statements.size()];
    const uint64_t sent = NowNs();
    ++samples->attempted;
    const bool ok = read(statement);
    const uint64_t done = NowNs();
    if (!ok) {
      ++samples->failed;
      continue;
    }
    samples->latency_us.push_back(static_cast<double>(done - due) / 1e3);
    samples->lateness_us.push_back(static_cast<double>(sent - due) / 1e3);
  }
}

void AccumulateChanges(const std::vector<Recorded>& log, EndToEnd* e2e) {
  for (const Recorded& rec : log) {
    if (!rec.step->timed || !rec.measured) continue;
    ++e2e->changes_attempted;
    if (rec.code != 0) {
      ++e2e->changes_failed;
      continue;
    }
    e2e->changes.push_back({rec.start_ns, rec.end_ns});
    e2e->wal_bytes += rec.wal_bytes;
    const ReportCounts counts = CountReport(rec.output);
    e2e->affected_views += counts.rewritten + counts.disabled;
    e2e->rewritten_views += counts.rewritten;
    e2e->truncated_views += counts.truncated;
  }
}

bool RunLocal(eve::net::Console* console, const std::string& statement,
              std::string* out) {
  std::ostringstream o;
  std::ostringstream e;
  const bool ok = console->Run(statement, o, e);
  *out = o.str();
  return ok;
}

void ReplayAndCompare(eve::net::Console* console, std::vector<Recorded> log,
                      size_t block_len, size_t replay_blocks, bool corrupt,
                      const std::function<bool(const Step&, uint64_t op)>&
                          on_change,
                      std::vector<ReplayedStep>* replayed, RunResult* result) {
  if (corrupt) {
    for (Recorded& rec : log) {
      if (rec.measured && rec.step->timed && !rec.output.empty()) {
        rec.output[rec.output.size() / 2] ^= 0x20;
        break;
      }
    }
  }
  uint64_t appends = 0;
  if (eve::Journal* journal = console->attached_journal()) {
    journal->SetObserver(
        [&appends](eve::JournalRecordKind, std::string_view) { ++appends; });
  }
  // Replayed output of each step position of a measured block.
  std::vector<std::string> period_output(block_len);
  std::vector<std::string> period_error(block_len);
  size_t measured_steps = 0;
  uint64_t op = 0;
  for (size_t i = 0; i < log.size(); ++i) {
    const Recorded& rec = log[i];
    const Step& step = *rec.step;
    if (rec.code != 0) {
      result->Fail("'" + step.statement + "' failed remotely: " + rec.error);
      break;
    }
    const size_t position = measured_steps % block_len;
    if (rec.measured) ++measured_steps;
    if (rec.measured && measured_steps > block_len * replay_blocks) {
      // Every block starts from the same state, so a later block must
      // repeat the replayed block's reports. Untimed restore steps print
      // version ids, which advance, and are checked by the remote code.
      if (step.timed && (rec.output != period_output[position] ||
                         rec.error != period_error[position])) {
        result->Fail("remote output of '" + step.statement +
                     "' differs from the in-process Console replay");
        break;
      }
      continue;
    }
    const bool shadowed = step.timed && on_change && on_change(step, op);
    std::ostringstream out;
    std::ostringstream err;
    const uint64_t appends_before = appends;
    const uint64_t start = NowNs();
    const bool ok = console->Run(step.statement, out, err);
    const uint64_t elapsed = NowNs() - start;
    if (step.timed) {
      if (rec.measured) {
        replayed->push_back({i, elapsed, appends - appends_before, shadowed});
      }
      ++op;
    }
    if (out.str() != rec.output || err.str() != rec.error || !ok) {
      result->Fail("remote output of '" + step.statement +
                   "' differs from the in-process Console replay");
      break;
    }
    if (rec.measured) {
      period_output[position] = out.str();
      period_error[position] = err.str();
    }
  }
  if (eve::Journal* journal = console->attached_journal()) {
    journal->SetObserver(nullptr);
  }
}

uint64_t TipVersion(const std::string& show_versions) {
  uint64_t tip = 0;
  std::istringstream lines(show_versions);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  v", 0) == 0) {
      tip = std::strtoull(line.c_str() + 3, nullptr, 10);
    }
  }
  return tip;
}

void CheckIdentity(const Args& args, const std::string& record,
                   RunResult* result) {
  const std::string dir =
      args.work_dir + "/../identity/" + args.code_digest;
  MakeDirs(dir);
  const std::string path = dir + "/" + args.workload + "-" + args.scale +
                           "-" + std::to_string(args.seed) + ".txt";
  std::string stored;
  if (ReadFile(path, &stored)) {
    if (stored != record) {
      result->Fail("identity record differs from an earlier run of the "
                   "same seed: was [" + stored + "], now [" + record + "]");
    }
    return;
  }
  WriteFile(path, record);
}

size_t ShadowFrame(const Recorded& recorded, Tracer* tracer, uint64_t op) {
  ScopedSpan span(tracer, "net.protocol.frame", op, -1, true);
  eve::net::Response response;
  response.id = op + 1;
  response.code = recorded.code;
  response.output = recorded.output;
  response.error = recorded.error;
  const std::string frame = eve::net::EncodeFrame(
      eve::net::FrameType::kResponse, eve::net::EncodeResponse(response));
  eve::net::FrameDecoder decoder;
  decoder.Feed(frame);
  std::optional<eve::net::Frame> decoded = decoder.Next();
  if (decoded.has_value()) {
    eve::net::DecodeResponse(decoded->payload);
  }
  return frame.size();
}

}  // namespace perfbench
