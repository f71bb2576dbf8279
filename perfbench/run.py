#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source, runs one workload and
prints its metrics; see perfbench/METRICS.md.

Run from the repository root:

  python3 perfbench/run.py --workload edge_latency --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload edge_latency --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics for
`--trace 0`, the per-layer metrics for `--trace 1`. The full report (per-phase
accounting, provenance, tail percentile and sample count, max-rate ladder)
and, for traced runs, a Chrome trace are written under the build directory
(`$CARGO_TARGET_DIR`, default `.bench_build`). Exit status: 0 when every
output matched its reference, 1 on a mismatch, 2 when the benchmark could not
build or run.
"""

import argparse
import json
import math
import os
import subprocess
import sys

WORKLOADS = ["edge_latency", "int8_batch", "serve_mixed_open"]

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "req/s",
    "ok_frac": "ratio",
    "resident_mb": "MiB",
}

KERNEL_GROUPS = ["bconv2d", "conv2d", "conv2d_int8", "depthwise", "pool",
                 "elementwise", "quantize", "fc"]

PER_LAYER = {
    "converter.convert_s": "s",
    "converter.ptq_s": "s",
    "converter.serialize_s": "s",
    "converter.load_s": "s",
    "converter.model_bytes": "bytes",
    "graph.compile_s": "s",
    "graph.variant_compile_s": "s",
    "graph.arena_bytes": "bytes",
    "graph.packed_weight_bytes": "bytes",
    "graph.dispatch_ms": "ms",
    "graph.attributed_frac": "ratio",
}
for _g in KERNEL_GROUPS:
    PER_LAYER["kernels.%s_ms" % _g] = "ms"
    PER_LAYER["kernels.%s_share" % _g] = "ratio"
    PER_LAYER["kernels.%s_speedup_4t" % _g] = "x"
PER_LAYER.update({
    "kernels.bconv2d_gops": "GOP/s",
    "kernels.conv2d_gflops": "GFLOP/s",
    "kernels.conv2d_int8_gops": "GOP/s",
    "gemm.binary_macs_per_req": "count",
    "gemm.scratch_bytes": "bytes",
    "core.parallel_for_us": "us",
    "core.parallel_for_calls_per_req": "count",
    "core.shard_imbalance_pct": "%",
    "serving.queue_wait_p50_ms": "ms",
    "serving.queue_wait_tail_ms": "ms",
    "serving.exec_p50_ms": "ms",
    "serving.batch_occupancy_mean": "lanes",
    "serving.pool_reuse_frac": "ratio",
    "serving.shed_frac": "ratio",
    "serving.deadline_frac": "ratio",
    "serving.queue_depth_peak": "count",
    "telemetry.profiling_overhead_frac": "ratio",
    "harness.generator_lag_tail_ms": "ms",
    "harness.max_rate_rps": "req/s",
})

# Layer attribution must cover this share of Invoke wall time.
MIN_ATTRIBUTED = 0.98

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, report dict or None)."""
    out_dir = os.path.join(os.path.dirname(build_dir()), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (workload, seed, trace))
    report_path = stem + ".json"
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--report", report_path]
    if trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, env=env, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(r.stdout)
    if r.returncode not in (0, 1) or not os.path.exists(report_path):
        return r.returncode, None
    with open(report_path) as f:
        return r.returncode, json.load(f)


def validate(report, trace):
    """Problems with a report: missing, unit-less or non-finite metrics."""
    problems = []
    expected = PER_LAYER if trace else END_TO_END
    metrics = report.get("metrics", {})
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append("missing metric %s" % name)
        elif m.get("unit") != unit:
            problems.append("%s has unit %r, expected %r" %
                            (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append("%s is not a finite number" % name)
    if trace:
        frac = metrics.get("graph.attributed_frac", {}).get("value", 0)
        if not frac >= MIN_ATTRIBUTED:
            problems.append("graph.attributed_frac %.4f < %.2f" %
                            (frac, MIN_ATTRIBUTED))
    else:
        for name in END_TO_END:
            if metrics.get(name, {}).get("value", 0) == 0:
                problems.append("%s is 0" % name)
    if not report.get("output_check", {}).get("accounting_reconciled"):
        problems.append("phase accounting does not reconcile with ServerStats")
    return problems


def result_line(report, trace):
    """The final JSON line. `correct` is the output check (every output
    bit-identical to its reference, accounting reconciled); `failed` counts
    every request that did not return a correct result. The max-rate ladder
    overloads the server on purpose, so its shed and expired requests are
    not failures; its output mismatches are."""
    attempted = failed = 0
    for p in report["phases"]:
        if p["name"] == "ladder":
            failed += p["mismatched"]
            continue
        attempted += p["attempted"]
        failed += p["failed"]
    expected = PER_LAYER if trace else END_TO_END
    metrics = {k: {"value": report["metrics"][k]["value"], "unit": u}
               for k, u in expected.items()}
    return {"correct": bool(report["correct"]), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def self_test(binary):
    """Smoke mode: every workload, traced and untraced, for a moment."""
    failures = []
    bench_json = os.path.join(os.getcwd(), "BENCHMARK.json")
    if os.path.exists(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if declared != END_TO_END:
            failures.append("BENCHMARK.json end_to_end differs from run.py")
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if declared != PER_LAYER:
            failures.append("BENCHMARK.json per_layer differs from run.py")
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            failures.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, report = run_binary(binary, workload, 7, 1.5, trace,
                                      smoke=True)
            tag = "%s trace=%d" % (workload, trace)
            if report is None:
                failures.append("%s: exit %d, no report" % (tag, code))
                continue
            problems = validate(report, trace)
            if code != 0 or not report["correct"]:
                problems.append("output check failed")
            failures += ["%s: %s" % (tag, p) for p in problems]
            log("self-test %s: %s" % (tag, "ok" if not problems else
                                      "; ".join(problems)))
    for f in failures:
        log("FAIL " + f)
    print(json.dumps({"self_test": "pass" if not failures else "fail",
                      "failures": len(failures)}))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    if args.self_test:
        return self_test(binary)
    try:
        code, report = run_binary(binary, args.workload, args.seed,
                                  args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    if report is None:
        log("perfbench: run failed with exit code %d" % code)
        return 2
    problems = validate(report, args.trace)
    for p in problems:
        log("perfbench: " + p)
    line = result_line(report, args.trace)
    if problems:
        line["correct"] = False
    print(json.dumps(line))
    return 0 if line["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
