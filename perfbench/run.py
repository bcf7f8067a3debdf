#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, both clocks.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--trace-seed <n>]

Builds `fsd_perfbench` from source into `.bench_build/perfbench` (CMake,
Release) and runs it as one single-threaded process on the seed:

  --trace 0  the workload repeats on a fresh simulated cloud at least three
             times and until `--seconds` have passed; setup_s is the fastest
             of a fixed number of set-ups, and virtual metrics must repeat
             exactly.
  --trace 1  three repetitions: warm-up, untraced and traced. The traced
             one records spans and is followed by the layer probes, which
             re-issue its data-plane calls; spans go to `.bench_build/spans/`.

Every query's output is checked against model::ReferenceInference inside
the binary, whose exit code decides `correct`. `--trace-seed` replaces the
open-loop workloads' fixed arrival trace (see README.md). The last stdout
line is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. Exits non-zero on a wrong output, a query accounting that does
not add up, a virtual-time difference between repetitions of one seed, or
a build or run failure.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "fsd_perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("batch_lossless", "serving_serial", "flash_crowd")
PROCESS_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; output goes to a log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = [["cmake", "--build", BUILD_DIR, "-j", "4"]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                sys.exit("perfbench: build failed (see %s)" % log_path)


def run_process(workload, seed, seconds, trace_seed, spans_path=None):
    """Runs the binary once and returns its JSON measurements."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_seed is not None:
        cmd += ["--trace-seed", str(trace_seed)]
    if spans_path:
        cmd += ["--trace", spans_path]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROCESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(proc.stderr)
        sys.exit("perfbench: %s exited %d without a result"
                 % (workload, proc.returncode))
    if proc.stderr:
        log(proc.stderr.rstrip())
    sample = json.loads(lines[-1])
    sample["exit_code"] = proc.returncode
    return sample


def counts(sample):
    """The query accounting of one repetition ("n." keys)."""
    return {k[2:]: int(v) for k, v in sample.items() if k.startswith("n.")}


def tail_label(sample):
    n = int(sample["v.latency_n"])
    pct = sample["v.latency_tail_pct"]
    return "max" if n < 11 else "p%.1f" % pct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-seed", type=int, default=None)
    args = parser.parse_args()
    if args.seed < 0 or (args.trace_seed is not None and args.trace_seed < 0):
        parser.error("seeds must be >= 0")

    build()
    spans_path = None
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(
            SPANS_DIR, "%s-seed%d.json" % (args.workload, args.seed))
    sample = run_process(args.workload, args.seed, args.seconds,
                         args.trace_seed, spans_path)
    n = counts(sample)
    correct = sample["exit_code"] == 0
    bad = n["failed"] + n["rejected"] + n["shed"] + n["wrong"]

    for key in ("host.cores", "host.kernel", "host.compiler",
                "host.sanitizer"):
        print("%s: %s" % (key, sample[key]))
    if args.workload != "batch_lossless":  # the closed loop has no trace
        print("trace seed: %d" % sample["trace_seed"])
    print("queries per repetition: submitted=%d completed=%d failed=%d "
          "rejected=%d shed=%d wrong=%d failed_share=%.6f repetitions=%d"
          % (n["submitted"], n["completed"], n["failed"], n["rejected"],
             n["shed"], n["wrong"], bad / max(1, n["submitted"]),
             n["repetitions"]))
    print("queries_per_wall_s (reported, not bounded): fastest %.6g, "
          "median %.6g 1/s over the untraced repetitions"
          % (sample["w.queries_per_wall_s"],
             sample["w.queries_per_wall_median"]))
    print("latency_tail_s is %s of n=%d completed queries"
          % (tail_label(sample), int(sample["v.latency_n"])))

    # Metric names and units come from BENCHMARK.json; the binary reports
    # each as "w.<name>" (wall/host) or "v.<name>" (virtual).
    with open(SPEC) as f:
        spec = json.load(f)
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        name = entry["name"]
        key = "w." + name if "w." + name in sample else "v." + name
        if key not in sample:
            sys.exit("perfbench: the binary does not report %s" % name)
        metrics[name] = {"value": sample[key], "unit": entry["unit"]}
    if args.trace:
        print("spans: %s" % os.path.relpath(spans_path, ROOT))
    for name, metric in metrics.items():
        print("%-34s %.10g %s" % (name, metric["value"], metric["unit"]))
    if not correct:
        log("perfbench: fsd_perfbench exited %d" % sample["exit_code"])

    result = {
        "correct": correct,
        "attempted": n["submitted"] * n["repetitions"],
        "failed": bad * n["repetitions"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
