#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t UnionNs(std::vector<std::pair<uint64_t, uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t total = 0;
  uint64_t cur_start = 0;
  uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

// --- Tracer -----------------------------------------------------------------

int Tracer::Begin(std::string name, uint64_t op, int parent, bool shadow) {
  Span span;
  span.name = std::move(name);
  span.op = op;
  span.parent = parent;
  span.shadow = shadow;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  spans_.back().start_ns = NowNs();
  return id;
}

void Tracer::End(int id) {
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int Tracer::Add(std::string name, uint64_t op, int parent, bool shadow,
                uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_) return -1;
  Span span{std::move(name), start_ns, end_ns, parent, op, shadow};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, Tracer::LayerTotals> Tracer::Totals(bool shadow) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span run sequentially on one thread, so the time they
  // cover is the sum of their durations.
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.shadow != shadow) continue;
    const uint64_t duration = span.end_ns - span.start_ns;
    LayerTotals& t = totals[span.name];
    ++t.count;
    t.total_ns += duration;
    // Never clamped: children outlasting their parent show up as a
    // negative self time.
    t.self_ns += static_cast<int64_t>(duration) -
                 static_cast<int64_t>(child_ns[i]);
  }
  return totals;
}

size_t Tracer::RealSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Span& span : spans_) n += span.shadow ? 0 : 1;
  return n;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op
       << ",\"shadow\":" << (s.shadow ? "true" : "false") << "}\n";
  }
  return WriteFile(path, os.str());
}

double SpanCostNs() {
  Tracer probe(true);
  constexpr int kSpans = 20000;
  const uint64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&probe, "probe", static_cast<uint64_t>(i));
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

// --- Results ----------------------------------------------------------------

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [existing, metric] : metrics) {
    if (existing == name) {
      metric = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

double DriftRatio(const std::vector<std::pair<uint64_t, uint64_t>>& changes) {
  const size_t third = changes.size() / 3;
  if (third == 0) return 1.0;
  std::vector<double> first;
  std::vector<double> last;
  for (size_t i = 0; i < third; ++i) {
    first.push_back(static_cast<double>(changes[i].second - changes[i].first));
    const auto& tail = changes[changes.size() - third + i];
    last.push_back(static_cast<double>(tail.second - tail.first));
  }
  const double base = Median(first);
  return base > 0 ? Median(last) / base : 1.0;
}

void SetHarnessMetrics(const EndToEnd& e2e, RunResult* result) {
  std::vector<double> change_ms;
  for (const auto& [start, end] : e2e.changes) {
    change_ms.push_back(static_cast<double>(end - start) / 1e6);
  }
  result->Set("harness.change_p90_ms", Percentile(change_ms, 90), "ms");
  result->Set("harness.drift_ratio", DriftRatio(e2e.changes), "ratio");
  result->Set("harness.read_lateness_p99_us",
              Percentile(e2e.read_lateness_us, 99), "us");
  result->Set("harness.read_p90_us", Percentile(e2e.read_us, 90), "us");
  result->Set("harness.read_p99_us", Percentile(e2e.read_us, 99), "us");
}

void Finish(const EndToEnd& e2e, bool enforce_floors, RunResult* result) {
  std::vector<double> change_ms;
  for (const auto& [start, end] : e2e.changes) {
    change_ms.push_back(static_cast<double>(end - start) / 1e6);
  }
  const uint64_t committed = e2e.changes.size();
  const double busy_s = static_cast<double>(UnionNs(e2e.changes)) / 1e9;
  result->attempted += e2e.changes_attempted + e2e.reads_attempted;
  result->failed += e2e.changes_failed + e2e.reads_failed;
  if (enforce_floors && committed < 100) {
    result->Fail("only " + std::to_string(committed) +
                 " changes committed; p90 needs at least 100");
  }
  if (enforce_floors && e2e.read_us.size() < 1000) {
    result->Fail("only " + std::to_string(e2e.read_us.size()) +
                 " reads completed; p99 needs at least 1000");
  }
  result->Set("setup_s", Median(e2e.setup_s), "s");
  result->Set("change_p50_ms", Percentile(change_ms, 50), "ms");
  result->Set("changes_per_s", busy_s > 0 ? committed / busy_s : 0.0, "1/s");
  result->Set("read_p50_us", Percentile(e2e.read_us, 50), "us");
  result->Set("survival_ratio",
              e2e.affected_views > 0
                  ? static_cast<double>(e2e.rewritten_views) /
                        static_cast<double>(e2e.affected_views)
                  : 0.0,
              "ratio");
  result->Set("wal_bytes_per_change",
              committed > 0 ? static_cast<double>(e2e.wal_bytes) /
                                  static_cast<double>(committed)
                            : 0.0,
              "B");
  result->Set("rss_mb", e2e.rss_mb, "MB");

  const double read_p99 = Percentile(e2e.read_us, 99);
  std::ostringstream os;
  os << "changes: " << committed << " committed of " << e2e.changes_attempted
     << " attempted, " << e2e.changes_failed << " failed; busy " << busy_s
     << " s; drift (last/first third median) " << DriftRatio(e2e.changes)
     << "; p90 " << Percentile(change_ms, 90) << " ms, p99 "
     << Percentile(change_ms, 99) << " ms, max "
     << Percentile(change_ms, 100) << " ms";
  result->Note(os.str());
  os.str("");
  os << "reads: open loop at " << e2e.read_rate_per_s << "/s, "
     << e2e.read_us.size() << " completed of " << e2e.reads_attempted
     << ", p99 " << read_p99 << " us against a limit of "
     << e2e.read_p99_limit_us << " us ("
     << (read_p99 <= e2e.read_p99_limit_us ? "met" : "missed")
     << "); generator lateness p50 " << Percentile(e2e.read_lateness_us, 50)
     << " us, p99 " << Percentile(e2e.read_lateness_us, 99) << " us";
  result->Note(os.str());
  os.str("");
  const uint64_t attempted = e2e.changes_attempted + e2e.reads_attempted;
  os << "error_ratio " << (attempted > 0 ? static_cast<double>(
                                               e2e.changes_failed +
                                               e2e.reads_failed) /
                                               static_cast<double>(attempted)
                                         : 0.0)
     << "; setup runs:";
  for (double s : e2e.setup_s) os << " " << s;
  os << " s; affected views " << e2e.affected_views << ", rewritten "
     << e2e.rewritten_views << ", truncated " << e2e.truncated_views;
  result->Note(os.str());
}

// --- Files, digests and processes -------------------------------------------

bool WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string HexDigest(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::string status;
  if (!ReadFile(path, &status)) return 0.0;
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::string stat;
  if (!ReadFile("/proc/stat", &stat)) return ticks;
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  std::istringstream line(stat.substr(0, stat.find('\n')));
  std::string label;
  line >> label;
  uint64_t value = 0;
  for (int field = 0; field < 8 && line >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

ReportCounts CountReport(const std::string& report) {
  ReportCounts counts;
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  view ", 0) == 0) {
      if (line.find(": rewritten") != std::string::npos) ++counts.rewritten;
      if (line.find(": DISABLED") != std::string::npos) ++counts.disabled;
    } else if (line.rfind("sync: ", 0) == 0) {
      const size_t at = line.find("truncated views: ");
      if (at == std::string::npos) continue;
      const size_t end = line.find(';', at);
      const std::string list = line.substr(
          at + 17, end == std::string::npos ? std::string::npos : end - at - 17);
      counts.truncated += 1 + std::count(list.begin(), list.end(), ',');
    }
  }
  return counts;
}

EvedProcess::~EvedProcess() { Stop(); }

bool EvedProcess::Start(const std::string& eved_path,
                        const std::string& work_dir,
                        const std::string& init_script, std::string* error) {
  const std::string port_file = work_dir + "/eved.port";
  ::unlink(port_file.c_str());
  const std::string log = work_dir + "/eved.log";
  const pid_t parent = ::getpid();
  const char* argv[] = {eved_path.c_str(), "--init",   init_script.c_str(),
                        "--port-file",     "eved.port", "--workers",
                        "4",               nullptr};
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid_ == 0) {
    // The server dies with the harness, however the harness ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(125);
    if (::chdir(work_dir.c_str()) != 0) ::_exit(126);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(eved_path.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  // Poll for the port file (written once the server listens).
  const uint64_t deadline = NowNs() + 120'000'000'000ULL;
  while (NowNs() < deadline) {
    std::string text;
    if (ReadFile(port_file, &text) && !text.empty() && text.back() == '\n') {
      port_ = static_cast<uint16_t>(std::strtoul(text.c_str(), nullptr, 10));
      return port_ != 0;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "eved exited during start-up (see " + log + ")";
      return false;
    }
    ::usleep(200);
  }
  *error = "eved did not start listening within 120 s";
  Stop();
  return false;
}

void EvedProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int i = 0; i < 5000; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    ::usleep(1'000);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

}  // namespace perfbench
