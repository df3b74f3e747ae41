#!/usr/bin/env python3
"""Repository benchmark: build the harness, run one workload, report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
                             [--smoke]

The C++ harness (perfbench/src) measures; this script builds it on first
use (CMake, into $CARGO_TARGET_DIR or .bench_build), turns its raw
samples into the metrics BENCHMARK.json declares, prints each metric with
its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 when every check passed, 1 when a check failed, and 2
when the benchmark could not run at all (no result line is printed then).
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nearest_rank(values, p):
    """The p-th percentile by nearest rank: the smallest sample with at
    least p percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[rank_of(p, len(ordered)) - 1]


def rank_of(p, n):
    """1-based nearest rank of the p-th percentile among n samples."""
    # Round away binary noise first: 99.9% of 10000 is rank 9990.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def highest_supported_percentile(n, ladder=PERCENTILE_LADDER, beyond=10):
    """Highest percentile on the ladder with at least `beyond` of the n
    samples above its nearest-rank position, or None."""
    for p in ladder:
        if n - rank_of(p, n) >= beyond:
            return p
    return None


def check_name(name):
    if not NAME_RE.fullmatch(name or ""):
        raise BenchError("invalid metric name %r" % (name,))
    return name


def check_unit(unit):
    if not UNIT_RE.fullmatch(unit or ""):
        raise BenchError("invalid unit %r" % (unit,))
    return unit


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    seen = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            name = check_name(entry["name"])
            if name in seen:
                raise BenchError("metric or workload %r declared twice" % name)
            seen.add(name)
            if "unit" in entry:
                check_unit(entry["unit"])
    return spec


def emit_result(correct, attempted, failed, metrics):
    """The final result line: metrics maps name -> (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {check_name(k): {"value": v, "unit": check_unit(u)}
                    for k, (v, u) in metrics.items()},
    })


def parse_result(line):
    """Inverse of emit_result (used by the tests and by consumers)."""
    doc = json.loads(line)
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("unexpected result keys %s" % sorted(doc))
    return (doc["correct"], doc["attempted"], doc["failed"],
            {k: (m["value"], m["unit"]) for k, m in doc["metrics"].items()})


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then (incrementally) build the harness."""
    bdir = build_dir()
    binary = os.path.join(bdir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    if not os.path.exists(binary):
        raise BenchError("build produced no %s" % binary)
    return binary


def run_harness(binary, args, deadline):
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(
               spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise BenchError("harness exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed no result")
    return json.loads(lines[-1])


def warm_setup_s(samples):
    """Median set-up time without the first (cold) set-up, when there
    are others."""
    return statistics.median(samples[1:] if len(samples) > 1 else samples)


def end_to_end(raw, spec, problems):
    ops = raw["op_ms"]
    # Every timing here is CPU time (see perfbench/README.md, "Timing").
    values = {
        "setup_s": warm_setup_s(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "work_per_cpu_s": raw["work_per_s"],
        "aux_per_cpu_s": raw["aux_per_s"],
        "final_loss": raw["final_loss"],
        "op_cpu_ms_p50": statistics.median(ops),
    }
    top = highest_supported_percentile(len(ops))
    if top is None or top < 95.0:
        if not raw["provenance"]["smoke"]:
            problems.append("%d ops are too few for a p95" % len(ops))
        values["op_cpu_ms_p95"] = max(ops)
    else:
        values["op_cpu_ms_p95"] = nearest_rank(ops, 95.0)
    if top is not None and top > 95.0:
        print("op_cpu_ms_p%g %.6g ms (highest percentile with >=10 samples "
              "beyond it)" % (top, nearest_rank(ops, top)))
    print("ops %d (op_cpu_ms percentiles over these samples)" % len(ops))
    print("set-ups %s CPU s (setup_s: median without the first, cold one)"
          % " ".join("%.4f" % v for v in raw["setup_s"]))
    metrics = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            problems.append("%s is %r" % (m["name"], v))
        metrics[m["name"]] = (v, m["unit"])
    return metrics


def per_layer(raw, spec):
    measured = raw["per_layer"]
    metrics = {}
    for m in spec["per_layer"]:
        got = measured.get(m["name"])
        # A layer the workload never enters reports 0.
        metrics[m["name"]] = (got["value"] if got else 0.0, m["unit"])
    extra = sorted(set(measured) - set(metrics))
    if extra:
        print("per-layer values not declared in BENCHMARK.json: %s"
              % ", ".join(extra))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        spec = load_spec(os.path.join(ROOT, "BENCHMARK.json"))
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError("unknown workload %r" % args.workload)
        binary = build()
        # The first build may be long; the run keeps its own budget.
        deadline = max(deadline, time.monotonic() + 60 + 4 * args.seconds)
        raw = run_harness(binary, args, deadline)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    problems = list(raw["failures"])
    if args.trace:
        metrics = per_layer(raw, spec)
    else:
        metrics = end_to_end(raw, spec, problems)
    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s" % (name, value, unit))
    print("provenance %s" % json.dumps(raw["provenance"], sort_keys=True))
    for p in problems:
        print("check failed: %s" % p)
    failed = raw["failed"]
    if problems and failed == 0:
        failed = 1
    correct = failed == 0
    print(emit_result(correct, raw["attempted"], failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
