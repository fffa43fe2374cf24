#!/usr/bin/env python3
"""End-to-end benchmark of the cohls synthesis flow (see perfbench/README.md).

Run one workload from the checkout root:

    python3 perfbench/run.py --workload paper-flow --seed 1 --seconds 10 --trace 0

Self-test (every workload, untraced and traced, checked against
BENCHMARK.json, with the tracing overhead of each workload):

    python3 perfbench/run.py --self-test [--seconds 2]

The first run builds perfbench/ together with the synthesis libraries it
links (src/) into .bench_build/ at the checkout root; later runs reuse that
build. The last line of stdout is the run's JSON result; the exit code is 0
only when every output passed its correctness check.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "cohls_perfbench"
WORKLOADS = ("paper-flow", "milp-closure", "batch-corpus", "fleet-replay")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Shares of the traced item time the intended layer must account for.
STRESS_SHARE = 0.5


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_sources():
    for relative in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt",
                     "examples/protocols/rt_qpcr.assay"):
        if not (ROOT / relative).is_file():
            fail(f"missing {relative}: run from a full checkout of the repository")


def build():
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "cohls_perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log}")
            if done.returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed; see {log}")


def source_record():
    """The commit when the checkout is a git repository, and always a digest
    of the sources the binary is built from."""
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    files = sorted(path for directory in ("src", "perfbench")
                   for path in (ROOT / directory).rglob("*")
                   if path.is_file() and "__pycache__" not in path.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return f"{commit} sources-sha256:{digest.hexdigest()[:16]}"


def command(workload, seed, seconds, trace, record):
    return [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--root", str(ROOT),
            "--trace-dir", str(BUILD / "traces"), "--commit", record]


def run_once(workload, seed, seconds, trace):
    try:
        return subprocess.run(command(workload, seed, seconds, trace, source_record()),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)


def unique_keys(pairs):
    keys = [key for key, _ in pairs]
    duplicates = {key for key in keys if keys.count(key) > 1}
    if duplicates:
        raise ValueError(f"duplicate keys {sorted(duplicates)}")
    return dict(pairs)


def self_test(seconds, seed):
    """Runs every workload untraced and traced and checks the printed
    metrics against BENCHMARK.json, the workloads' layer-stress claims, and
    reports the tracing overhead."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} are not all in {list(WORKLOADS)}")
    record = source_record()
    overhead = []
    for workload in WORKLOADS:
        metrics = {}
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            try:
                done = subprocess.run(command(workload, seed, seconds, trace, record),
                                      capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                problems.append(f"{label}: timed out")
                continue
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit {done.returncode} {done.stderr.strip()[-300:]}")
                continue
            try:
                result = json.loads(lines[-1], object_pairs_hook=unique_keys)
            except ValueError as error:
                problems.append(f"{label}: last line is not a result: {error}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{label}: incorrect outputs ({result['failed']} failed)")
            got = result["metrics"]
            for name, unit in expected[trace].items():
                printed = sum(1 for line in lines if line.startswith(f"metric {name} "))
                if name not in got:
                    problems.append(f"{label}: metric {name} missing")
                elif got[name].get("unit") != unit:
                    problems.append(f"{label}: {name} unit {got[name].get('unit')} != {unit}")
                elif printed != 1:
                    problems.append(f"{label}: {name} printed {printed} times")
            for name in set(got) - set(expected[trace]):
                problems.append(f"{label}: metric {name} is not in BENCHMARK.json")
            metrics[trace] = {name: value["value"] for name, value in got.items()}
        if len(metrics) < 2:
            continue
        untraced, traced = metrics[0], metrics[1]
        problems += [f"{workload}: {claim}" for claim in stress_failures(workload, traced)]
        overhead.append((workload, untraced["latency_ms_p50"], traced["trace.latency_ms_p50"],
                         untraced["throughput_per_s"], traced["trace.throughput_per_s"]))
    print("tracing overhead (traced run vs untraced run):")
    print(f"  {'workload':<14} {'p50 ms':>10} {'traced':>10} {'delta':>8}"
          f" {'per s':>12} {'traced':>12} {'delta':>8}")
    for workload, p50, p50_traced, rate, rate_traced in overhead:
        print(f"  {workload:<14} {p50:>10.4g} {p50_traced:>10.4g}"
              f" {percent(p50_traced, p50):>8} {rate:>12.6g} {rate_traced:>12.6g}"
              f" {percent(rate_traced, rate):>8}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-test " + ("passed" if not problems else f"FAILED ({len(problems)} problems)"))
    return 0 if not problems else 1


def percent(value, base):
    return f"{100.0 * (value - base) / base:+.1f}%" if base else "n/a"


def stress_failures(workload, m):
    """Each workload must load the layer it was chosen for (README.md)."""
    share = lambda name: m[name] / m["trace.item_ms"] if m["trace.item_ms"] else 0.0
    claims = {
        "paper-flow": [("core.layer_solves_ilp = 0", m["core.layer_solves_ilp"] == 0),
                       ("lp.pivots = 0", m["lp.pivots"] == 0)],
        "milp-closure": [(f"milp.model_build_ms + milp.solve_ms >= {STRESS_SHARE:.0%}"
                          " of the item time",
                          share("milp.model_build_ms") + share("milp.solve_ms")
                          >= STRESS_SHARE)],
        "batch-corpus": [("engine.cache_hits > 0", m["engine.cache_hits"] > 0),
                         ("core.recoveries_attempted > 0",
                          m["core.recoveries_attempted"] > 0)],
        "fleet-replay": [(f"sim.fleet_ms >= {STRESS_SHARE:.0%} of the item time",
                          share("sim.fleet_ms") >= STRESS_SHARE)],
    }
    return [f"stress claim failed: {claim}" for claim, held in claims[workload] if not held]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is not None and not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    if not args.self_test and args.workload is None:
        parser.error("--workload is required (or --self-test)")
    check_sources()
    build()
    if args.self_test:
        return self_test(args.seconds or 2, args.seed)
    return run_once(args.workload, args.seed, args.seconds or 10, args.trace)


if __name__ == "__main__":
    sys.exit(main())
