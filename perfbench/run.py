#!/usr/bin/env python3
"""Build and run the end-to-end pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. Each call first builds perfbench/ (the
rsafe library from src/ plus the benchmark driver, RelWithDebInfo) with
CMake into .bench_build/perfbench, sending the build log to stderr, and
then runs the driver with the given arguments. The driver's last stdout
line is the result: {"correct", "attempted", "failed", "metrics"}. A
traced run (--trace 1) also writes its spans as Chrome trace_event JSON
to .bench_build/perfbench/trace-<workload>-<seed>.json (opens in
Perfetto).

--smoke is the benchmark's own test: it checks that the driver's metric
tables match BENCHMARK.json, then runs every workload briefly in both
modes (plus a held-out seed) and checks that every metric is emitted
with its unit and that every output check passed.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
HELD_OUT_SEED = 9001


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rsafe sources at %s; run from a repository checkout"
             % os.path.join(ROOT, "src"))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def trace_out_args(argv):
    """--trace-out for a traced run, unless the caller gave one."""
    def value(flag):
        return argv[argv.index(flag) + 1] if flag in argv[:-1] else None
    if value("--trace") != "1" or "--trace-out" in argv:
        return []
    name = "trace-%s-%s.json" % (value("--workload"), value("--seed") or "0")
    return ["--trace-out", os.path.join(BUILD, name)]


def run_driver(args):
    """Run the driver; return (exit code, stdout lines)."""
    proc = subprocess.run([BINARY] + args + trace_out_args(args),
                          stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(lines, specs, label):
    """Check one driver result against the metric specs.

    Returns (errors, detail line, result line)."""
    errors = []
    if len(lines) < 2:
        return ["%s: expected a detail line and a result line" % label], {}, {}
    detail = json.loads(lines[-2]).get("perfbench", {})
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: output check failed: %s"
                      % (label, detail.get("failures")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted must be a whole number >= 1" % label)
    metrics = result.get("metrics", {})
    want = {s["name"]: s["unit"] for s in specs}
    if set(metrics) != set(want):
        errors.append("%s: metrics %s, expected %s"
                      % (label, sorted(metrics), sorted(want)))
    for name, unit in want.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            errors.append("%s: %s unit %r, expected %r"
                          % (label, name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            errors.append("%s: %s value %r" % (label, name, m.get("value")))
    host = detail.get("host", {})
    for key in ("host_cpus", "threads_peak", "build_type", "sanitizer_build"):
        if key not in host:
            errors.append("%s: host fact %s missing" % (label, key))
    return errors, detail, result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    code, lines = run_driver(["--list-metrics"])
    if code != 0:
        fail("--list-metrics failed", 1)
    tables = json.loads(lines[-1])
    errors = []
    if [w["name"] for w in bench["workloads"]] != tables["workloads"]:
        errors.append("BENCHMARK.json workloads differ from the driver's")
    for key in ("end_to_end", "per_layer"):
        ours = [(m["name"], m["unit"], m["better"]) for m in tables[key]]
        theirs = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        if ours != theirs:
            errors.append("BENCHMARK.json %s differs from the driver's" % key)

    runs = [(w, 0, t) for w in tables["workloads"] for t in (0, 1)]
    runs += [(w, HELD_OUT_SEED, 0) for w in tables["workloads"]]
    for workload, seed, trace in runs:
        label = "%s seed %d trace %d" % (workload, seed, trace)
        code, lines = run_driver(["--workload", workload, "--seed", str(seed),
                                  "--seconds", "1", "--trace", str(trace)])
        specs = tables["per_layer" if trace else "end_to_end"]
        errs, detail, result = check_result(lines, specs, label)
        if code != 0:
            errs.append("%s: exit code %d" % (label, code))
        if trace == 0 and "fail_frac" not in detail:
            errs.append("%s: fail_frac missing" % label)
        if trace == 0 and "tail_percentile" not in detail:
            errs.append("%s: tail percentile missing" % label)
        errors += errs
        print("%-36s %s" % (label, "ok" if not errs else "FAILED"))
    for e in errors:
        print("  " + e)
    print("smoke: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--smoke"]:
        sys.exit(smoke())
    sys.stdout.flush()
    sys.exit(subprocess.run([BINARY] + argv + trace_out_args(argv)).returncode)


if __name__ == "__main__":
    main()
