// The benchmark's three workloads (perfbench/METRICS.md says why each one
// exists and which layer metrics it is meant to move).
#ifndef LCE_PERFBENCH_WORKLOADS_H_
#define LCE_PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"

namespace perfbench {

// Builds `args.workload` from the seed, sets it up, measures it and checks
// every output. Untraced runs report the end-to-end metrics, traced runs
// the per-layer metrics. Returns false and sets `error` when the workload
// could not run at all; output mismatches are reported through
// `*correct` and the failure counts instead.
bool RunWorkload(const Args& args, Report& report, SpanLog& spans,
                 bool* correct, std::string* error);

}  // namespace perfbench

#endif  // LCE_PERFBENCH_WORKLOADS_H_
