// perfbench: the repository benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --bin-dir <dir> --work-dir <dir> [--scale full|tiny]
//             [--git-commit <id>] [--code-digest <hex>] [--corrupt-output]
//
// Prints human-readable notes and the environment record on stderr and,
// as the last line of stdout, one JSON object with the keys correct,
// attempted, failed and metrics. Exit status 0 when every output check
// passed, 1 when one failed, 2 on a usage or build problem.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "shadow.h"
#include "workloads.h"

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

// Timings from an unoptimized build are not reported.
constexpr bool kOptimized =
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    true;
#else
    false;
#endif

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Usage() {
  std::cerr << "usage: perfbench --workload deep-search|refresh-data "
               "--seed <n> --seconds <s> --trace 0|1 --bin-dir <dir> --work-dir <dir> "
               "[--scale full|tiny] [--git-commit <id>] [--code-digest <hex>] "
               "[--corrupt-output]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--scale" && has_value) {
      args.scale = argv[++i];
    } else if (arg == "--bin-dir" && has_value) {
      args.bin_dir = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else if (arg == "--git-commit" && has_value) {
      args.git_commit = argv[++i];
    } else if (arg == "--code-digest" && has_value) {
      args.code_digest = argv[++i];
    } else if (arg == "--corrupt-output") {
      args.corrupt_output = true;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.bin_dir.empty() || args.work_dir.empty() ||
      !(args.seconds > 0) || (args.scale != "full" && args.scale != "tiny")) {
    return Usage();
  }
  if (!kOptimized) {
    std::cerr << "perfbench: refusing to report from an unoptimized build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 2;
  }
  std::cerr << "env: {\"workload\": " << JsonString(args.workload)
            << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"scale\": " << JsonString(args.scale)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
            << ", \"git_commit\": " << JsonString(args.git_commit)
            << ", \"code_digest\": " << JsonString(args.code_digest) << "}\n";

  RemoveTree(args.work_dir);
  MakeDirs(args.work_dir);
  RunResult result;
  const CpuTicks ticks_before = ReadCpuTicks();
  if (args.workload == "deep-search") {
    RunDeepSearch(args, &result);
  } else if (args.workload == "refresh-data") {
    RunRefreshData(args, &result);
  } else {
    return Usage();
  }
  {
    // On a shared virtual machine, time the hypervisor gave to other
    // guests shows up in every latency; say how much there was.
    const CpuTicks ticks_after = ReadCpuTicks();
    const double total = static_cast<double>(ticks_after.total - ticks_before.total);
    std::ostringstream os;
    os << "cpu steal during the run: "
       << (total > 0 ? 100.0 *
                           static_cast<double>(ticks_after.steal -
                                               ticks_before.steal) /
                           total
                     : 0.0)
       << "% of all cpu time";
    result.Note(os.str());
  }
  if (args.trace) CompletePerLayer(&result);
  if (result.attempted == 0) result.Fail("no operation was attempted");

  for (const std::string& note : result.notes) {
    std::cerr << args.workload << ": " << note << "\n";
  }
  for (const std::string& failure : result.failures) {
    std::cerr << args.workload << ": CHECK FAILED: " << failure << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) json << ", ";
    first = false;
    json << JsonString(name) << ": {\"value\": " << JsonNumber(metric.value)
         << ", \"unit\": " << JsonString(metric.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
