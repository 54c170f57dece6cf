#!/usr/bin/env python3
"""End-to-end campaign benchmark: build the e2ebench binary, run one workload.

One run (the form BENCHMARK.json names):

    python3 e2ebench/run.py --workload clean-sweep --seed 1 --seconds 35 --trace 0

prints a summary of all nine end-to-end metrics and, as its last line, one
JSON object with "correct", "attempted", "failed" and "metrics". The
untraced run starts the binary again and again, one identical round per
process and up to three processes at once, until --seconds are spent.
tests_per_s divides the round's timed tests (in bug-hunt, each trial's
first 2000) by the sum, over their segments of about 500 tests, of each
segment's fastest time in any process: other tenants of a shared host
slow the program by up to a half for seconds at a time, and the fastest
time of identical work is the figure that does not depend on them
(NOTES.md, "Host noise"). The other timings are medians over all
processes. --trace 1 runs one traced process and reports the per-layer
metrics instead.

Steadiness mode repeats every workload, interleaved so that a change in
host speed hits all of them. It prints the nine end-to-end metrics of every
run, then the median and quartiles of each gated metric; --steady 1 is the
one command that prints all nine metrics for every workload:

    python3 e2ebench/run.py --steady 10 --seconds 35 [--seed 1]

The binary is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root.
"""

import argparse
import concurrent.futures
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["clean-sweep", "bug-hunt", "service-resume"]
RUN_LIMIT_S = 170      # one run, all its processes, ends within this
MIN_PROCESSES = 3
# Processes sampled at once: one fewer than the CPUs this process may use,
# at most three (the bounds come from a 4-vCPU host).
PROCESSES_AT_ONCE = max(1, min(3, len(os.sched_getaffinity(0)) - 1))
# Exact outcomes every process of one run must reproduce.
EXACT_KEYS = ["fingerprint", "tests_per_round", "timed_tests", "covered_points", "detect_tests",
              "resume_steps"]


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures (once) and builds the e2ebench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no mabfuzz sources under {ROOT}/src; run from a full checkout")
    out = os.path.join(build_dir(), "e2ebench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "e2ebench")


def drive(binary, workload, seed, trace, timeout, slot=0):
    """Runs the e2ebench binary once; returns (stdout lines, last-line JSON or None)."""
    workdir = os.path.join(build_dir(), "work", f"{workload}-{os.getpid()}-{slot}")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--workdir", workdir,
           "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.spans.csv")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return [f"e2ebench: {workload} did not finish in time"], None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return lines + [f"e2ebench: the binary exited with {proc.returncode}"], None
    return lines[:-1], json.loads(lines[-1])


def finite(values):
    return [v if v is not None else math.inf for v in values]


def spread_text(values, unit):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"{med:.6g} {unit} (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})"
    return f"{med:.6g} {unit} (1 sample)"


def untraced(binary, workload, seed, seconds):
    """Samples processes until `seconds` are spent; returns (lines, result)."""
    start = time.monotonic()
    finished, durations, running = [], [], {}
    free = list(range(PROCESSES_AT_ONCE))
    with concurrent.futures.ThreadPoolExecutor(PROCESSES_AT_ONCE) as pool:
        while True:
            elapsed = time.monotonic() - start
            typical = statistics.median(durations) if durations else 0.0
            while free and elapsed < RUN_LIMIT_S / 2 and (
                    len(finished) + len(running) < MIN_PROCESSES or elapsed + typical <= seconds):
                slot = free.pop()
                job = pool.submit(drive, binary, workload, seed, 0, RUN_LIMIT_S - elapsed, slot)
                running[job] = (slot, time.monotonic())
            if not running:
                break
            done, _ = concurrent.futures.wait(running, return_when=concurrent.futures.FIRST_COMPLETED)
            for job in done:
                slot, began = running.pop(job)
                free.append(slot)
                durations.append(time.monotonic() - began)
                finished.append(job.result())
    for out, sample in finished:
        if sample is None:
            return out, None
    lines = finished[0][0]
    notes = [line for out, _ in finished[1:] for line in out if line.startswith("FAILED")]
    samples = [sample for _, sample in finished]

    first = samples[0]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for i, s in enumerate(samples[1:], start=2):
        attempted += 1
        differing = [k for k in EXACT_KEYS if s[k] != first[k]]
        if len(s["segment_s"]) != len(first["segment_s"]):
            differing.append("segment count")
        if differing:
            failed += 1
            notes.append(f"FAILED: process {i} exact outcomes differ: {', '.join(differing)}")
            ours, theirs = first["fingerprint"].split(";"), s["fingerprint"].split(";")
            for mine, other in zip(ours + [""] * len(theirs), theirs + [""] * len(ours)):
                if mine != other:
                    notes.append(f"  process 1: {mine[:400]}\n  process {i}: {other[:400]}")
                    break

    def pooled(key):
        return [v for s in samples for v in s[key]]

    rate = pooled("tests_per_s")
    # Each segment's fastest time over the processes whose segments match
    # the first one's; a process that differs is already counted as failed.
    segments = [s["segment_s"] for s in samples if len(s["segment_s"]) == len(first["segment_s"])]
    best_s = sum(min(times) for times in zip(*segments))
    best_rate = first["timed_tests"] / best_s
    setup = pooled("setup_s")
    resume = pooled("resume_s")
    rss = [s["peak_rss_mb"] for s in samples]
    summary = [f"e2ebench {workload} seed {seed}: {len(samples)} processes, one round of "
               f"{first['tests_per_round']} tests each"]
    summary.append(f"  tests_per_s      {best_rate:.6g} tests/s ({first['timed_tests']} tests in "
                   f"{len(first['segment_s'])} segments, each at its fastest over {len(segments)} "
                   f"processes; round rate " + spread_text(rate, "tests/s") + ")")
    summary.append(f"  covered_points   {first['covered_points']} points (exact)")
    if first["detect_tests"]:
        # Per trial, the median over processes; censored trials are +inf,
        # so a censored trial is never counted as a detection.
        per_trial_s = [statistics.median(finite(v))
                       for v in zip(*(s["detect_s"] for s in samples))]
        tests = finite(first["detect_tests"])
        detected = sum(1 for t in tests if math.isfinite(t))
        summary.append(f"  detect_s_p50     {statistics.median(per_trial_s):.6g} s (median over "
                       f"{len(tests)} trials of each trial's median over {len(samples)} "
                       f"processes; censored = inf)")
        summary.append(f"  detect_tests_p50 {statistics.median(tests):.6g} tests "
                       f"(exact; censored = inf)")
        summary.append(f"  detected_share   {detected / len(tests):.6g} ratio "
                       f"({detected} of {len(tests)} trials)")
    else:
        summary.append("  detect_s_p50     n/a (no bug is timed in this workload)")
        summary.append("  detect_tests_p50 n/a")
        summary.append("  detected_share   n/a")
    if resume:
        summary.append("  resume_s         " + spread_text(resume, "s") +
                       f", from step {first['resume_steps']}")
    else:
        summary.append("  resume_s         n/a (no resume in this workload)")
    summary.append("  setup_s          " + spread_text(setup, "s"))
    summary.append("  peak_rss_mb      " + spread_text(rss, "MiB"))
    summary.append(f"  error_rate       {failed / attempted:.6g} ratio "
                   f"({failed} failed of {attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "tests_per_s": {"value": best_rate, "unit": "tests/s"},
            "covered_points": {"value": first["covered_points"], "unit": "points"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        },
    }
    return lines + notes + summary, result


def run(binary, workload, seed, seconds, trace):
    if trace:
        return drive(binary, workload, seed, 1, RUN_LIMIT_S)
    return untraced(binary, workload, seed, seconds)


def steady(binary, args):
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {w: {} for w in WORKLOADS}
    failures = 0
    for i in range(args.steady):
        for workload in WORKLOADS:
            seed = args.seed + i
            lines, result = run(binary, workload, seed, args.seconds, 0)
            # The nine end-to-end metrics, failures and the run's header.
            for line in lines:
                if line.startswith(("e2ebench", "FAILED", "  ")) and not line.startswith(
                        ("  trial", "  cells", "  jobs", "  censored")):
                    print(line)
            if result is None or not result["correct"]:
                print(f"run {i + 1} {workload} seed {seed}: failed")
                failures += 1
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            summary = ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"run {i + 1} {workload} seed {seed}: {summary}", flush=True)
    print()
    print(f"{'workload':15} {'metric':15} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload in WORKLOADS:
        for name, vals in values[workload].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  above a third of its bound"
            print(f"{workload:15} {name:15} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    print(f"\n{failures} failed runs")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="repeat every workload this many times, interleaved")
    args = parser.parse_args()
    if not args.steady and not args.workload:
        parser.error("--workload is required unless --steady is given")

    binary = build()
    if args.steady:
        return steady(binary, args)
    lines, result = run(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
