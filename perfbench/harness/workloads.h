// The benchmark workloads. Each fills `result` with its end-to-end
// metrics (untraced) or per-layer metrics (traced) and fails it when an
// output check fails.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunDeepSearch(const Args& args, RunResult* result);
void RunRefreshData(const Args& args, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
