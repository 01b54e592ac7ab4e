#!/usr/bin/env python3
"""The FastFlex benchmark: one workload, one seed, checked, every metric
printed by name with its unit.

    python3 perfbench/run.py --workload fig3_lfa|ring_sharded|multi_tenant \
        --seed N --seconds S --trace 0|1

Run from the repository root.  It builds perfbench/ (the simulator library
from src/ plus the ffbench binary) optimized into .bench_build/, runs
ffbench, checks its outputs and prints a report.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
METRICS.md describes every metric and workload.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # the benchmark writes only its build tree
import analysis  # noqa: E402  (sits next to this file)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ffbench")
WORKLOADS = ("fig3_lfa", "ring_sharded", "multi_tenant")
OPTIMIZED_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no FastFlex source tree at " + os.path.join(ROOT, "src"))
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "ffbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith("//"):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    """sha256 over src/ and perfbench/ (paths and contents): names the code
    measured where no git commit is available."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "none"
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def refuse_unfit(cache, stamp=None):
    """Exit 3, printing no result, on an unoptimized or sanitizer build:
    first from the CMake cache, then from the binary's own stamp."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper(), "CMAKE_EXE_LINKER_FLAGS"))
    if build_type not in OPTIMIZED_TYPES or (stamp and not stamp["optimized"]):
        fail("refusing to report timings from an unoptimized build (%r)" % build_type, 3)
    if "-fsanitize" in flags or (stamp and stamp["sanitized"]):
        fail("refusing to report timings from a sanitizer build", 3)


def environment(stamp, cache, seed):
    """The stamp every result carries."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": "%s %s" % (os.path.basename(cache.get("CMAKE_CXX_COMPILER", "?")),
                               stamp["compiler"]),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def print_checks(checks):
    failed = sum(1 for _, ok in checks if not ok)
    print("checks: %d/%d passed, fail_frac %.4g" % (
        len(checks) - failed, len(checks), analysis.fail_frac(checks)))
    for desc, ok in checks:
        print("  [%s] %s" % ("ok" if ok else "FAIL", desc))


def print_metrics(metrics, catalogue):
    for name, (unit, better) in catalogue.items():
        print("  %-28s %16.6g %-6s (%s is better)" % (name, metrics[name], unit, better))


def print_trace(rows, sites, wall_s):
    print("sites (ratio estimator = calls x mean sampled ns; stride estimator = "
          "sampled_ns x stride):")
    print("  %-15s %12s %9s %10s %12s %12s %12s" % (
        "site", "calls", "samples", "mean_ns", "incl_ms", "self_ms", "stride_ms"))
    for site, e in sites.items():
        print("  %-15s %12d %9d %10.1f %12.3f %12.3f %12.3f" % (
            site, e["calls"], e["samples"], e["mean_ns"], e["incl_ns"] * 1e-6,
            e["self_ns"] * 1e-6, e["stride_est_ns"] * 1e-6))
    print("ledger of the traced repetition (wall %.3f s):" % wall_s)
    for name, sec in rows:
        print("  %-28s %10.3f ms %6.1f%%" % (name, sec * 1e3, 100.0 * sec / wall_s))
    print("  %-28s %10.3f ms" % ("sum", sum(v for _, v in rows) * 1e3))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    build()
    cache = cmake_cache()
    refuse_unfit(cache)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("ffbench exited with %d" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    refuse_unfit(cache, raw["build"])
    env = environment(raw["build"], cache, args.seed)

    print("workload %s  %s" % (args.workload, "  ".join(
        "%s=%s" % kv for kv in env.items())))
    reps = raw["reps"]
    print("repetitions: %d  wall_s %s" % (
        len(reps), " ".join("%.3f" % r["wall_s"] for r in reps)))
    print("setup_s over %d builds: median %.6f  min %.6f  max %.6f" % (
        len(raw["setup_s"]), statistics.median(raw["setup_s"]), min(raw["setup_s"]),
        max(raw["setup_s"])))
    checks = analysis.run_checks(raw)
    print_checks(checks)
    if args.trace:
        metrics, rows, sites = analysis.per_layer(raw)
        print_trace(rows, sites, reps[1]["wall_s"])
        catalogue = analysis.PER_LAYER
    else:
        metrics = analysis.end_to_end(raw, checks)
        catalogue = analysis.END_TO_END
    print("metrics:")
    print_metrics(metrics, catalogue)
    print(json.dumps(analysis.result_line(metrics, catalogue, checks)))


if __name__ == "__main__":
    main()
