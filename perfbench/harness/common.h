// Shared plumbing of the benchmark harness: run arguments, clocks,
// percentiles, the in-memory span recorder, end-to-end metric assembly,
// child processes and small file helpers.
//
// Every workload fills one RunResult. main.cc prints it as the single JSON
// line the benchmark contract asks for (end-to-end metrics without
// --trace, per-layer metrics with it).

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- Arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // "full" (the benchmark) or "tiny" (the self-test: same code paths,
  // sizes small enough to finish in a few seconds).
  std::string scale = "full";
  // Self-test hook: flips one byte of one remote change report before the
  // output check, which must then fail the run.
  bool corrupt_output = false;
  // Directory holding the built eved binary, and a private scratch
  // directory for this run's generated files, journals and traces.
  std::string bin_dir;
  std::string work_dir;
  std::string git_commit = "unknown";
  // Digest of the built harness and eved binaries; keys the identity
  // records, so records of one build are never compared with another's.
  std::string code_digest = "unknown";

  bool tiny() const { return scale == "tiny"; }
};

// --- Clocks and statistics --------------------------------------------------

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Nearest-rank percentile (q in [0, 100]) of an unsorted sample; 0 for an
// empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Total time covered by the union of [start, end) intervals, in ns.
uint64_t UnionNs(std::vector<std::pair<uint64_t, uint64_t>> intervals);

// --- Spans ------------------------------------------------------------------

// One recorded span. `parent` indexes the recorder's span list (-1 for a
// root); `op` groups the spans of one operation; a shadow span times a
// layer's public entry point re-run on the same inputs outside the timed
// window, for layers that sit inside one public call.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;
  uint64_t op = 0;
  bool shadow = false;
};

// Spans are kept in memory and written out when the run ends. Disabled
// recorders (untraced runs) record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(std::string name, uint64_t op, int parent, bool shadow);
  void End(int id);
  // Records a finished span whose times the caller measured itself.
  int Add(std::string name, uint64_t op, int parent, bool shadow,
          uint64_t start_ns, uint64_t end_ns);

  // Self time per span name: duration minus the time covered by its
  // direct children. Counts are spans per name.
  struct LayerTotals {
    uint64_t count = 0;
    int64_t self_ns = 0;
    uint64_t total_ns = 0;
  };
  std::map<std::string, LayerTotals> Totals(bool shadow) const;
  size_t RealSpans() const;

  // One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t op, int parent = -1,
             bool shadow = false)
      : tracer_(tracer),
        id_(tracer->enabled() ? tracer->Begin(std::move(name), op, parent,
                                              shadow)
                              : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// Measured cost of recording one span on this machine, in ns.
double SpanCostNs();

// --- Results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  // Human-readable lines printed to stderr before the JSON line.
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes.push_back(line); }
};

// Raw end-to-end samples one workload collects; Finish turns them into
// the end-to-end metric set (names and units fixed by BENCHMARK.json).
struct EndToEnd {
  std::vector<double> setup_s;
  // Timed capability changes: [start, end) in steady-clock ns.
  std::vector<std::pair<uint64_t, uint64_t>> changes;
  uint64_t changes_attempted = 0;
  uint64_t changes_failed = 0;
  // Open-loop reads, latency measured from the due time.
  std::vector<double> read_us;
  std::vector<double> read_lateness_us;
  uint64_t reads_attempted = 0;
  uint64_t reads_failed = 0;
  double read_rate_per_s = 0.0;
  double read_p99_limit_us = 0.0;
  // View outcomes summed over the timed changes.
  uint64_t affected_views = 0;
  uint64_t rewritten_views = 0;
  uint64_t truncated_views = 0;
  uint64_t wal_bytes = 0;
  double rss_mb = 0.0;
};

// With `enforce_floors`, a run with fewer than 100 changes or 1000 reads
// fails: its p90 / p99 would rest on fewer than ten samples.
void Finish(const EndToEnd& e2e, bool enforce_floors, RunResult* result);

// Drift figure of a change-latency series: median of the last third over
// the median of the first third (1.0 = no drift).
double DriftRatio(const std::vector<std::pair<uint64_t, uint64_t>>& changes);

// The traced run's harness rows: drift, generator lateness, the change p90
// and the read p90 and p99 (too noisy run to run for bounded end-to-end
// metrics).
void SetHarnessMetrics(const EndToEnd& e2e, RunResult* result);

// --- Files, digests and processes -------------------------------------------

bool WriteFile(const std::string& path, std::string_view bytes);
bool ReadFile(const std::string& path, std::string* out);
uint64_t FileSize(const std::string& path);
bool MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);
std::string HexDigest(std::string_view bytes);  // FNV-1a 64

// Peak resident set (VmHWM) of `pid` (0 = this process), in MB.
double PeakRssMb(pid_t pid);

// Machine-wide cpu time in clock ticks from /proc/stat: all of it, and
// the part stolen by the hypervisor for other guests.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

// Counts "view <name>: rewritten|DISABLED" and "sync: truncated views:"
// entries of one change report.
struct ReportCounts {
  uint64_t rewritten = 0;
  uint64_t disabled = 0;
  uint64_t truncated = 0;
};
ReportCounts CountReport(const std::string& report);

// An eved child process: spawned with --init and --port-file inside
// `work_dir`, stopped with SIGTERM and reaped in the destructor.
class EvedProcess {
 public:
  EvedProcess() = default;
  ~EvedProcess();
  EvedProcess(const EvedProcess&) = delete;
  EvedProcess& operator=(const EvedProcess&) = delete;

  // Starts eved and waits until it listens (or exits, or times out).
  bool Start(const std::string& eved_path, const std::string& work_dir,
             const std::string& init_script, std::string* error);
  void Stop();
  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
