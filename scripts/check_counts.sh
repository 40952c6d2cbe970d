#!/usr/bin/env bash
# Counts gate (also the ctest case check_counts, label `counts`): runs the
# paper-table benches and the default fault-injection campaign with
# --manifest-out, and compares the counts of work they report (RVI sweeps
# and solves, ratio iterations, template-cache hits, misses and footprint,
# guard ticks, simulated events and messages) exactly against the
# committed BENCH_counts.json. Counts do not drift with the host, so a
# change that moves one shows it here and re-records the file in the same
# change. Timed values, the thread pool's counters (util.pool.*, which
# depend on scheduling), the event engine's gauges (they describe whichever
# simulation drained last) and the dispatched ISA stay out of the list.
# Every run also writes what it measured to BUILD/BENCH_counts.json; to
# re-record, copy that file over the committed one.
#
# Usage: scripts/check_counts.sh [build-dir]   (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
[[ -d "$build" ]] || build="$repo/$1"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# bench name and its fixed flags, one per line.
runs=(
  "bench_table2 --threads 4"
  "bench_table3 --threads 4"
  "bench_table4 --threads 4"
  "bench_degraded_network"
)
for run in "${runs[@]}"; do
  read -r name flags <<<"$run"
  bin="$build/bench/$name"
  [[ -x "$bin" ]] || {
    echo "check_counts.sh: $bin not built" >&2
    exit 1
  }
  # shellcheck disable=SC2086
  "$bin" $flags --manifest-out="$out/$name.json" >/dev/null
  echo "$run" >"$out/$name.flags"
done

python3 - "$out" "$repo/BENCH_counts.json" "$build/BENCH_counts.json" <<'EOF'
import json, pathlib, sys

out, ledger, fresh = (pathlib.Path(arg) for arg in sys.argv[1:4])

COUNTERS = [
    "mdp.batch.items_run", "mdp.batch.items_skipped",
    "mdp.cache.hits", "mdp.cache.misses",
    "mdp.pi.solves", "mdp.pi.improvements",
    "mdp.ratio.solves", "mdp.ratio.outer_iterations",
    "mdp.ratio.bisection_solves",
    "mdp.rvi.solves", "mdp.rvi.sweeps",
    "robust.guard.ticks",
    "sim.engine.events_scheduled", "sim.engine.events_dispatched",
    "sim.net.events", "sim.net.blocks_mined", "sim.net.wasted_finds",
    "sim.net.dropped_messages", "sim.net.duplicated_messages",
    "sim.net.deferred_deliveries", "sim.net.stale_deliveries",
    "sim.net.relayed_messages",
]
GAUGES = ["mdp.cache.entries", "mdp.cache.bytes_resident"]

measured = {}
for manifest in sorted(out.glob("*.json")):
    metrics = json.loads(manifest.read_text())["metrics"]
    name = manifest.stem
    measured[name] = {
        "run": (out / f"{name}.flags").read_text().strip(),
        "counters": {k: metrics["counters"][k] for k in COUNTERS
                     if k in metrics["counters"]},
        "gauges": {k: metrics["gauges"][k] for k in GAUGES
                   if k in metrics["gauges"]},
    }

fresh.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")

expected = json.loads(ledger.read_text())
failures = []
for name in sorted(set(expected) | set(measured)):
    want, got = expected.get(name), measured.get(name)
    if want is None or got is None:
        failures.append(f"{name}: in {'the run' if want is None else 'the ledger'} only")
        continue
    if want["run"] != got["run"]:
        failures.append(f"{name}: ledger ran '{want['run']}', this run '{got['run']}'")
    for section in ("counters", "gauges"):
        for key in sorted(set(want[section]) | set(got[section])):
            a, b = want[section].get(key), got[section].get(key)
            if a != b:
                failures.append(f"{name} {key}: ledger {a}, run {b}")
if failures:
    print("check_counts.sh: counts moved against BENCH_counts.json:")
    for line in failures:
        print("  " + line)
    print(f"check_counts.sh: this run's counts are in {fresh}")
    sys.exit(1)
print(f"check_counts.sh: {len(measured)} runs match BENCH_counts.json")
EOF
