#!/usr/bin/env python3
"""Runs one benchmark workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the driver from
source (CMake, into $CARGO_TARGET_DIR or .bench_build); build time is not
measured. With --trace 0 it runs one driver process after another until
the next would end past S seconds (at least one), and reports each
end-to-end metric as the median over processes. With --trace 1 it runs
one traced process, which writes Chrome trace-event JSON under the build
directory, and one untraced process of the same seed to measure the
tracing overhead; it reports every per-layer metric. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import benchstats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 170
REFUSED_ENV = ("CACHESCHED_SIM_THREADS", "CACHESCHED_CHECK",
               "CACHESCHED_FAULTS")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build_driver():
    """Configures and builds the driver; returns its path."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a checkout: CMakeLists.txt and src/ "
             "are missing here")
    out = os.path.join(build_root(), "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", BENCH_DIR, "-B", out],
             ["cmake", "--build", out, "--target", "perfbench_driver",
              "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = ["CMakeLists.txt"]
    for top in ("src", os.path.relpath(BENCH_DIR)):
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            files.extend(os.path.join(d, n) for n in sorted(names))
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_driver(driver, args):
    """Runs one driver process; returns (parsed last line, seconds)."""
    t = time.monotonic()
    try:
        r = subprocess.run([driver] + args, capture_output=True, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s: %s" % (DRIVER_TIMEOUT_S, args))
    took = time.monotonic() - t
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail("driver exited with %d: %s" % (r.returncode, args))
    for line in lines[:-1]:
        if line.startswith(("FAILED", "digest", "layer")):
            print("  " + line)
    return json.loads(lines[-1]), took


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    for var in REFUSED_ENV:
        if os.environ.get(var):
            fail("refusing to run with %s set: it changes the engine path "
                 "being measured" % var, 2)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    problems = benchstats.check_benchmark(spec)
    if problems:
        fail("BENCHMARK.json: " + "; ".join(problems))
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % a.workload, 2)

    driver = build_driver()
    commit = source_id()
    scratch = os.path.join(build_root(), "scratch")
    shutil.rmtree(scratch, ignore_errors=True)
    base = ["--workload=" + a.workload, "--seed=%d" % a.seed,
            "--scratch=" + scratch, "--commit=" + commit,
            "--expect=" + os.path.join(BENCH_DIR, "expected_digests.tsv")]

    samples = []
    if a.trace:
        trace_dir = os.path.join(build_root(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace = os.path.join(trace_dir, "%s-%d.trace.json" % (a.workload, a.seed))
        traced, _ = run_driver(driver, base + ["--trace=" + trace])
        plain, _ = run_driver(driver, base)
        samples = [traced, plain]
        overhead = (traced["metrics"]["wall_s"]["value"] /
                    plain["metrics"]["wall_s"]["value"] - 1.0)
        traced["metrics"]["trace.overhead_frac"] = {"value": overhead,
                                                    "unit": "ratio"}
        wanted = spec["per_layer"]
        print("trace written to %s" % trace)
    else:
        start = time.monotonic()
        took = []
        while True:
            s, t = run_driver(driver, base)
            samples.append(s)
            took.append(t)
            elapsed = time.monotonic() - start
            if elapsed + benchstats.median(took) > a.seconds:
                break
        wanted = spec["end_to_end"]

    meta = samples[0]["meta"]
    print("# %s seed=%d processes=%d nproc=%s compiler=%s build_type=%s "
          "commit=%s" % (a.workload, a.seed, len(samples), meta["nproc"],
                         meta["compiler"], meta["build_type"], commit))
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for m in wanted:
        reported = samples[0]["metrics"].get(m["name"])
        if reported is None or reported["unit"] != m["unit"]:
            fail("driver reported %s as %r; BENCHMARK.json expects unit %s"
                 % (m["name"], reported, m["unit"]))
    metrics = {}
    if a.trace:
        for m in wanted:
            value = samples[0]["metrics"][m["name"]]["value"]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("%-34s %14.6g %s" % (m["name"], value, m["unit"]))
    else:
        print("%-18s %12s %12s %12s %4s %s" % ("metric", "median", "q1", "q3",
                                               "n", "unit"))
        for m in wanted:
            if m["name"] == "setup_s":
                values = [v for s in samples for v in s["setup_samples"]]
            else:
                values = [s["metrics"][m["name"]]["value"] for s in samples]
            q1, med, q3 = benchstats.quartiles(values)
            print("%-18s %12.6g %12.6g %12.6g %4d %s" % (
                m["name"], med, q1, q3, len(values), m["unit"]))
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    # fail_frac is 0 on a correct run, so it travels as attempted/failed in
    # the result line rather than as a metric.
    print("%-18s %12.6g %30s %4d ratio" % ("fail_frac", failed / attempted,
                                            "", attempted))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
