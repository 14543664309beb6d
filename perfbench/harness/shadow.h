// Shadow calls for the traced run.
//
// A capability change crosses several layers inside one public call
// (EveSystem::ApplyChange, or Console::Run behind eved). To attribute its
// time, the traced run re-runs each layer's public entry point on the
// same inputs (the pre-change system and the change) outside the timed
// window: EvolveMkb, JoinGraph::Build, ComputeRMapping, the R-replacement
// candidate stream, CheckLegality, SaveViews, MkbVersionStore::Commit on a
// copy and Journal::Append on a scratch file. Every span recorded here is
// marked as a shadow span.

#ifndef PERFBENCH_HARNESS_SHADOW_H_
#define PERFBENCH_HARNESS_SHADOW_H_

#include <cstdint>
#include <map>
#include <string>

#include "common.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "mkb/capability_change.h"

namespace perfbench {

// Counts gathered by the shadow calls, summed over changes.
struct ShadowCounts {
  uint64_t changes = 0;
  uint64_t affected_views = 0;
  uint64_t candidates_pulled = 0;
  uint64_t rewritings = 0;
  uint64_t trees_expanded = 0;
  uint64_t version_bytes = 0;
};

// The reconciled layers of one change, in the order they run inside
// ApplyChange; these are the children of the "shadow.change" span.
extern const char* const kApplyLayers[];
extern const size_t kNumApplyLayers;

// Runs the shadow calls for `change` against `system` (which must be in
// the pre-change state). `scratch` receives the journal records the real
// commit would append. Returns false (with `error`) when a layer call
// fails, which the caller treats as a failed output check.
bool ShadowChange(const eve::EveSystem& system,
                  const eve::CapabilityChange& change, eve::Journal* scratch,
                  Tracer* tracer, uint64_t op, ShadowCounts* counts,
                  std::string* error);

// Mean shadow time per change of each span name, in microseconds.
std::map<std::string, double> MeanShadowUs(const Tracer& tracer,
                                           uint64_t changes);

// Sets the cvs.*, mkb.*, hypergraph.*, eve.view_pool_io.render_us,
// eve.journal.append_us and eve.system.* per-layer metrics from the
// shadow spans and counts.
void SetShadowMetrics(const Tracer& tracer, const ShadowCounts& counts,
                      RunResult* result);

// Per-layer metric names this harness reports, each with its unit, in
// the order of BENCHMARK.json. Metrics a workload does not reach are
// reported as 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// Fills every per-layer metric not yet set with 0 so each traced run
// prints the full set.
void CompletePerLayer(RunResult* result);

// Adds the reconciliation rows: e2e mean change time against the sum of
// layer times plus an explicit unattributed remainder (never clamped).
// `layers` are (name, mean us per change) rows that partition the e2e
// time.
void Reconcile(const std::string& e2e_name, double e2e_mean_us,
               const std::vector<std::pair<std::string, double>>& layers,
               RunResult* result);

// Notes each span name's count, self time and total time, real spans and
// shadow spans apart.
void NoteSpanTotals(const Tracer& tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SHADOW_H_
