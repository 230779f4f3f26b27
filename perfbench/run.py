#!/usr/bin/env python3
"""Runs one workload of the SqlArray benchmark.

    python3 perfbench/run.py --workload table1_scan --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the perfbench binary from source
(perfbench/CMakeLists.txt compiles ../src) into .bench_build/perfbench,
runs the workload, checks its outputs, and prints each metric with its unit.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones; a traced run also
writes its spans next to the report. Exits non-zero when the build fails or
any output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("table1_scan", "session_mix", "ingest")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds the binary; output goes to stderr."""
    generated = [os.path.join(out_dir, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def self_test():
    """Runs the metric helpers' unit tests; a broken helper fails the run."""
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_metrics.py")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not self_test():
        log("metric helper tests failed")
        return 1
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    report_dir = os.path.join(out_dir, "results")
    os.makedirs(report_dir, exist_ok=True)
    report_path = os.path.join(report_dir, stem + ".report.json")
    spans_path = os.path.join(report_dir, stem + ".spans.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", report_path]
    if args.trace:
        cmd += ["--trace-out", spans_path]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("workload run failed: %s" % e)
        return 1

    with open(report_path) as f:
        report = json.load(f)
    host = dict(report["host"], git_commit=git_commit())
    failed_checks = [c for c in report["checks"] if not c["ok"]]
    correct = bool(report["checks"]) and not failed_checks
    for c in failed_checks:
        log("check failed: %s: %s" % (c["name"], c["detail"]))
    attempted = int(report["counts"].get("attempted", 0))
    failed = int(report["counts"].get("failed", 0))

    if args.trace:
        values, bases = metrics.per_layer(report, load_spans(spans_path))
        details = {"bases": bases}
    else:
        values, details = metrics.end_to_end(report)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "host": host, "checks": len(report["checks"]),
               "failed_checks": failed_checks, "details": details,
               "metrics": {k: {"value": val, "unit": unit}
                           for k, (val, unit) in values.items()}}
    with open(os.path.join(report_dir, stem + ".result.json"), "w") as f:
        json.dump(summary, f, indent=1)

    print("workload %s seed %d trace %d: %d checks, %d failed; %d attempted, %d failed"
          % (args.workload, args.seed, args.trace, len(report["checks"]),
             len(failed_checks), attempted, failed))
    print("host " + json.dumps(host, sort_keys=True))
    for name, (val, unit) in values.items():
        base = details.get("bases", {}).get(name)
        extra = " (%s / %s)" % (base["num"], base["den"]) if base else ""
        print("%-40s %16.6f %s%s" % (name, val, unit, extra))
    for name, val in details.get("class_p50_ms", {}).items():
        print("%-40s %16.6f ms (statement class median)" % (name + "_p50_ms", val))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": val, "unit": unit}
                                  for k, (val, unit) in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
