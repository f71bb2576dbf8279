// perfbench: the repo benchmark's measuring program. perfbench/run.py builds
// and drives it; see perfbench/METRICS.md for the workloads and metrics.
//
//   perfbench --workload <edge_latency|int8_batch|serve_mixed_open>
//             --seed <n> --seconds <s> --trace <0|1>
//             --report <path> [--trace-out <path>] [--smoke]
//
// Prints every metric by name and unit and writes the full JSON report
// (metrics, per-phase accounting, provenance, output check). Exit status:
// 0 all outputs correct, 1 an output mismatched or the accounting did not
// reconcile, 2 the workload could not run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--report") {
      a->report_path = v;
    } else if (k == "--trace-out") {
      a->trace_path = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && !a->report_path.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --report PATH [--trace-out PATH] [--smoke]\n");
    return 2;
  }
  perfbench::SpanLog spans(args.trace);
  perfbench::Report report;
  bool correct = false;
  std::string error;
  if (!perfbench::RunWorkload(args, report, spans, &correct, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  report.Section("provenance", perfbench::ProvenanceJson(args));
  if (args.trace && !args.trace_path.empty()) {
    if (!spans.Write(args.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_path.c_str());
      return 2;
    }
    report.Section("trace_file", "\"" + args.trace_path + "\"");
  }
  std::ofstream out(args.report_path);
  out << report.ToJson(correct) << "\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.report_path.c_str());
    return 2;
  }
  std::printf("perfbench %s seed %llu (%s)\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  report.Print();
  return correct ? 0 : 1;
}
