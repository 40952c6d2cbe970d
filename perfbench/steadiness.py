#!/usr/bin/env python3
"""Steadiness report: two independent sets of runs of each workload.

Usage, from the repository root:

    python3 perfbench/steadiness.py

Runs two sets of ten runs of each workload of BENCHMARK.json, each run
`python3 perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0` with its own seed; the seeds count up from 1. For every end-to-end metric the report prints each set's median
and quartiles, the quartile spread as a share of the median (which must
stay within the metric's bound), and whether the two sets' medians agree:
they may differ, either way, by at most the bound. Runs whose environment
stamps differ are reported as not comparable, never as a gain or a
regression. Exits non-zero when any check fails.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Stamp fields that identify the environment, not the run.
STAMP_FIELDS = ("nproc", "isa", "build_type", "compiler", "git_sha",
                "source_digest", "journal_fs")
SETS = 2
RUNS = 10
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    stamp = {}
    for line in lines:
        if line.startswith("perfbench-env "):
            env = json.loads(line[len("perfbench-env "):])
            stamp = {key: env.get(key) for key in STAMP_FIELDS}
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, stamp


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worsening(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return float("inf")
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    ok = True
    seed = FIRST_SEED
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        stamps = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                values, stamp = run_once(workload, seed, bench["run_seconds"])
                seed += 1
                runs.append(values)
                stamps.append(stamp)
                print(f"  {workload} seed {seed - 1} [{stamp.get('isa')}]: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in values.items()),
                      flush=True)
            sets.append(runs)
        comparable = all(s == stamps[0] for s in stamps)
        verdict = "comparable" if comparable else "NOT comparable"
        print(f"\n== {workload}: {SETS} x {RUNS} runs, "
              f"environment {verdict}")
        ok &= comparable
        if not comparable:
            for stamp in {json.dumps(s, sort_keys=True) for s in stamps}:
                print(f"  stamp seen: {stamp}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [summary([run[name] for run in runs]) for runs in sets]
            line = f"  {name:22s} bound {bound:.2f}"
            for index, (median, q1, q3, spread) in enumerate(rows):
                steady = spread <= bound
                ok &= steady
                line += (f" | set {index + 1}: median {median:.5g} "
                         f"[{q1:.5g}, {q3:.5g}] spread {spread:.3f}"
                         f"{'' if steady else ' UNSTEADY'}")
            worse = worsening(rows[0][0], rows[1][0], metric["better"])
            agree = abs(worse) <= bound
            ok &= agree
            line += f" | set 2 worse by {worse:+.3f}" + (
                "" if agree else " DISAGREE")
            print(line, flush=True)
    print("\nsteadiness:", "ok" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
