// Driving a server over the wire: the closed-loop writer, the open-loop
// snapshot readers, and the in-process Console replay that checks every
// remote change report byte for byte (deep-search), and the open-loop
// generator refresh-data's in-process readers use too.

#ifndef PERFBENCH_HARNESS_REMOTE_H_
#define PERFBENCH_HARNESS_REMOTE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "mkb/capability_change.h"
#include "net/client.h"
#include "net/console.h"

namespace perfbench {

// One statement of a writer's change stream. Timed steps are capability
// changes measured end to end; untimed steps restore state between them
// (outside the timed window of any change).
struct Step {
  std::string statement;
  std::optional<eve::CapabilityChange> change;
  bool timed = false;
};

// One executed step with its remote outcome.
struct Recorded {
  const Step* step = nullptr;
  std::string output;
  std::string error;
  int32_t code = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t wal_bytes = 0;
  bool measured = false;  // inside the timed window (not warm-up)
};

struct WriterOptions {
  // Repeated whole; the stream stops at the first block boundary after
  // `until_ns`, so every run covers whole blocks and ends in the state a
  // block starts from.
  const std::vector<Step>* block = nullptr;
  uint64_t until_ns = 0;
  bool measured = true;
  // Journal whose growth is charged to each timed step ("" = none).
  std::string wal_path;
};

// Runs blocks on `client` until the deadline; appends to `log`. Returns
// false on a transport failure (recorded in `error`).
bool RunWriter(eve::net::NetClient* client, const WriterOptions& options,
               std::vector<Recorded>* log, std::string* error);

struct ReaderOptions {
  std::vector<std::string> statements;  // picked uniformly, seeded
  uint64_t seed = 1;
  double rate_per_s = 100.0;            // this reader's share
  uint64_t start_ns = 0;
  const std::atomic<bool>* stop = nullptr;
};

struct ReaderSamples {
  std::vector<double> latency_us;   // from the due time
  std::vector<double> lateness_us;  // send time - due time
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Open loop: request k is due at start + k / rate whatever happened to
// request k - 1; a late request is timed from its due time. `read` runs
// one request and returns whether it succeeded.
void RunOpenLoop(const ReaderOptions& options,
                 const std::function<bool(const std::string&)>& read,
                 ReaderSamples* samples);

// RunOpenLoop over `client`: each statement must succeed with output.
void RunReader(eve::net::NetClient* client, const ReaderOptions& options,
               ReaderSamples* samples);

// Adds the timed, measured writer steps of `log` to `e2e` (latencies, WAL
// bytes, view outcomes).
void AccumulateChanges(const std::vector<Recorded>& log, EndToEnd* e2e);

// One replayed timed step of the measured window: its index in the log,
// the in-process Console::Run time, the journal appends it made, and
// whether shadow calls ran just before it.
struct ReplayedStep {
  size_t index = 0;
  uint64_t console_ns = 0;
  uint64_t journal_appends = 0;
  bool shadowed = false;
};

// Checks `log` (warm-up steps, then measured blocks of `block_len` steps,
// as RunWriter records them) against `console`, set up the way the server
// was. The warm-up and the first `replay_blocks` measured blocks are
// replayed statement by statement and must match byte for byte; every
// block starts from the same state, so each later block's change reports
// must equal the replayed ones at the same position. Fails `result` on the
// first difference. With `corrupt`, one byte of the first measured remote
// report is flipped first (self-test). `on_change`, when set, runs before
// each replayed timed step and returns whether it ran shadow calls.
void ReplayAndCompare(eve::net::Console* console, std::vector<Recorded> log,
                      size_t block_len, size_t replay_blocks, bool corrupt,
                      const std::function<bool(const Step&, uint64_t op)>&
                          on_change,
                      std::vector<ReplayedStep>* replayed, RunResult* result);

// Runs one statement on an in-process console, returning its stdout.
bool RunLocal(eve::net::Console* console, const std::string& statement,
              std::string* out);

// The tip version id printed by SHOW VERSIONS ("  v<id> ..." lines).
uint64_t TipVersion(const std::string& show_versions);

// Stores the cross-run identity record of this run's (code digest,
// workload, scale, seed) next to the run's work directory, or compares it
// with the stored one; a mismatch fails the run. Keyed by the digest of
// the built binaries, so a build of other code starts its own records.
void CheckIdentity(const Args& args, const std::string& record,
                   RunResult* result);

// Shadow of the wire encoding of one response: encode, frame, decode.
// Returns the frame size in bytes.
size_t ShadowFrame(const Recorded& recorded, Tracer* tracer, uint64_t op);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REMOTE_H_
