#!/usr/bin/env bash
# Solve-service end-to-end test (registered as the `svc`-labeled ctest case
# check_service): proves the service stack serves the SAME numbers as the
# in-process bench, including across a real daemon kill —
#
#   1. an uninterrupted `bench_table2 --quick --ad 3` run produces the
#      baseline CSV (setting 1, 21 grid cells);
#   2. bvcd is started on an ephemeral port, the same grid is submitted as
#      one job through bvc-cli, and the polled result's utility values must
#      match the baseline CSV cell for cell; repeat leg: the same grid goes
#      to the same daemon a second time and every cell must be shared from
#      the first job (reused == 21, records equal wall_clock_ns included,
#      GET /v1/cache hits and misses unchanged: nothing was looked up);
#      warm-cache leg: the grid again at another tolerance has new cell
#      keys, so nothing is reused and every cell is solved from the warm
#      model cache (misses unchanged, hits up by the cell count); after
#      the three jobs, `bvc-cli metrics` reads 3 jobs submitted and done;
#   3. a second daemon is crash-injected via BVC_CRASH_AFTER_CELLS: it is
#      SIGKILLed by the journal hook mid-grid, leaving exactly N journaled
#      cells; a restarted daemon on the same state dir RESUMES the job, and
#      the final records must be identical to the uninterrupted service
#      run's (wall_clock_ns aside — replayed cells keep their original
#      timings, resumed-then-solved cells measure their own); the two
#      daemons share a --telemetry-dir, and `bvc-cli merge` of it must
#      show two `bvcd (pid N)` lanes, with every span in one of them;
#   4. net-sim leg: a replica campaign journaled by bench_degraded_network
#      is re-run as a `net-sim` job; the records streamed by `bvc-cli tail`
#      must match the bench journal cell for cell (sim records carry no
#      wall-clock, so byte-exact values), and a crash-injected daemon that
#      dies mid-campaign must serve the identical records after restart.
#
# Usage: scripts/check_service.sh [build-dir]   (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
[[ -d "$build" ]] || build="$repo/$1"
bench="$build/bench/bench_table2"
sim_bench="$build/bench/bench_degraded_network"
bvcd="$build/src/svc/bvcd"
cli="$build/src/svc/bvc-cli"
for bin in "$bench" "$sim_bench" "$bvcd" "$cli"; do
  [[ -x "$bin" ]] || {
    echo "check_service.sh: $bin not built" >&2
    exit 1
  }
done

out="$(mktemp -d)"
daemon_pid=""
cleanup() {
  [[ -n "$daemon_pid" ]] && kill -9 "$daemon_pid" 2>/dev/null
  rm -rf "$out"
}
trap cleanup EXIT

# The injection hook must never leak in from the caller's environment.
unset BVC_CRASH_AFTER_CELLS

# The same grid, twice: once through the bench, once through the service.
cat >"$out/job.json" <<'EOF'
{"kind": "bu-attack",
 "utility": "relative-revenue",
 "grid": {"alphas": [0.10, 0.15, 0.20, 0.25],
          "ratios": [[3, 2], [1, 1], [2, 3], [1, 2], [1, 3], [1, 4]],
          "ad": 3, "setting": 1}}
EOF

# The grid at another solver tolerance: new cell keys, same model templates.
python3 - "$out/job.json" "$out/job-tol.json" <<'EOF'
import json, sys
job = json.load(open(sys.argv[1]))
job["tolerance"] = 2e-5
json.dump(job, open(sys.argv[2], "w"))
EOF

# 1. Baseline: the in-process bench with the identical grid.
"$bench" --quick --ad 3 --threads 2 --csv "$out/baseline.csv" \
  >"$out/baseline.txt" 2>/dev/null

# Extra bvcd flags for the daemons a leg starts (leg 3 sets them).
daemon_flags=()

start_daemon() {  # start_daemon <state-dir> [env VAR=...]
  local state="$1"; shift
  rm -f "$out/port.txt"
  env "$@" "$bvcd" --port-file "$out/port.txt" --state-dir "$state" \
    --threads 2 "${daemon_flags[@]}" >>"$out/bvcd.log" 2>&1 &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$out/port.txt" ]] && return 0
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
  done
  echo "check_service.sh: bvcd did not start" >&2
  cat "$out/bvcd.log" >&2
  exit 1
}

stop_daemon() {
  kill "$daemon_pid" 2>/dev/null || true
  wait "$daemon_pid" 2>/dev/null || true
  daemon_pid=""
}

# 2. Serve the grid and diff against the baseline CSV; then serve it again
# (every cell repeated) and once more at another tolerance (warm cache).
start_daemon "$out/state1"
"$cli" submit --port-file "$out/port.txt" --file "$out/job.json" \
  >"$out/submit1.json"
"$cli" result j1 --port-file "$out/port.txt" --timeout 600 \
  >"$out/result1.json"
"$cli" cache --port-file "$out/port.txt" >"$out/cache-cold.json"
"$cli" submit --port-file "$out/port.txt" --file "$out/job.json" \
  >"$out/submit1-repeat.json"
"$cli" result j2 --port-file "$out/port.txt" --timeout 600 \
  >"$out/result1-repeat.json"
"$cli" cache --port-file "$out/port.txt" >"$out/cache-repeat.json"
"$cli" submit --port-file "$out/port.txt" --file "$out/job-tol.json" \
  >"$out/submit1-tol.json"
"$cli" result j3 --port-file "$out/port.txt" --timeout 600 \
  >"$out/result1-tol.json"
"$cli" cache --port-file "$out/port.txt" >"$out/cache-tol.json"
"$cli" metrics --port-file "$out/port.txt" >"$out/metrics.json"
stop_daemon

python3 - "$out/baseline.csv" "$out/result1.json" <<'EOF'
import csv, json, sys

# Baseline cells keyed by (alpha, beta) to 4 decimals, u1 to 6 decimals.
baseline = {}
with open(sys.argv[1]) as f:
    for row in csv.DictReader(f):
        if row["setting"] == "1":
            baseline[(row["alpha"], row["beta"])] = float(row["u1"])
assert len(baseline) == 21, f"expected 21 baseline cells, got {len(baseline)}"

result = json.load(open(sys.argv[2]))
assert result["state"] == "done", result["state"]
assert result["completed"] == 21, result
for record in result["records"]:
    fields = dict(part.split("=", 1)
                  for part in record["key"].split("|")[1:] if "=" in part)
    key = (f"{float(fields['alpha']):.4f}", f"{float(fields['beta']):.4f}")
    value = dict(record["values"])["utility_value"]
    assert key in baseline, f"service cell {key} not in baseline CSV"
    assert abs(value - baseline[key]) < 5e-7, \
        f"cell {key}: service {value!r} vs bench {baseline[key]!r}"
print(f"check_service: {len(result['records'])} service cells match the "
      "bench CSV")
EOF

python3 - "$out/result1.json" "$out/result1-repeat.json" \
  "$out/result1-tol.json" "$out/cache-cold.json" "$out/cache-repeat.json" \
  "$out/cache-tol.json" <<'EOF'
import json, sys

def load(path):
    result = json.load(open(path))
    assert result["state"] == "done", (path, result["state"])
    assert result["completed"] == 21, (path, result["completed"])
    return result, {r["key"]: r for r in result["records"]}

(_, cold), (repeat, shared), (tol, tolerant) = map(load, sys.argv[1:4])
cache_cold, cache_repeat, cache_tol = (json.load(open(p))
                                       for p in sys.argv[4:7])

# Repeat leg: every cell is the first job's record, wall_clock_ns included,
# and the model cache was never consulted.
assert repeat["reused"] == 21, f"repeat job reused {repeat['reused']} cells"
assert shared == cold, "repeated records differ from the cold job's"
assert (cache_repeat["hits"], cache_repeat["misses"]) == \
    (cache_cold["hits"], cache_cold["misses"]), \
    f"repeat job looked the model cache up: {cache_cold} -> {cache_repeat}"

# Warm-cache leg: new keys, so every cell is solved, each from a cached
# template.
assert tol["reused"] == 0, f"tolerance job reused {tol['reused']} cells"
assert not set(tolerant) & set(cold), "a tolerance changed no cell key"
assert cache_tol["misses"] == cache_repeat["misses"], \
    f"tolerance job missed the model cache: {cache_repeat} -> {cache_tol}"
assert cache_tol["hits"] == cache_repeat["hits"] + 21, \
    f"tolerance job hit the cache " \
    f"{cache_tol['hits'] - cache_repeat['hits']} times, expected 21"
print("check_service: a repeated grid shared all 21 records; at another "
      "tolerance all 21 cells solved from the warm model cache")
EOF

python3 - "$out/metrics.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
for name in ("svc.jobs.submitted", "svc.jobs.done"):
    assert counters.get(name) == 3, f"{name} = {counters.get(name)}, expected 3"
print("check_service: bvc-cli metrics counts 3 jobs submitted and done")
EOF

# 3. Crash leg: the journal hook SIGKILLs the daemon after 5 journaled
# cells; the job is mid-grid when the process dies. The daemon and its
# restart write their trace spans into one telemetry dir.
daemon_flags=(--telemetry-dir "$out/telemetry")
start_daemon "$out/state2" BVC_CRASH_AFTER_CELLS=5
"$cli" submit --port-file "$out/port.txt" --file "$out/job.json" \
  >"$out/submit2.json"
set +e
wait "$daemon_pid"
status=$?
set -e
daemon_pid=""
[[ $status -eq 137 ]] || {
  echo "check_service.sh: expected SIGKILL death (137), got $status" >&2
  cat "$out/bvcd.log" >&2
  exit 1
}
cells=$(wc -l <"$out/state2/job-j1.cells.jsonl")
[[ $cells -eq 5 ]] || {
  echo "check_service.sh: journal has $cells cells, expected 5" >&2
  exit 1
}

# Restart WITHOUT the injection env: the daemon must resume j1 from the
# journal and finish the remaining cells.
start_daemon "$out/state2"
"$cli" result j1 --port-file "$out/port.txt" --timeout 600 \
  >"$out/result2.json"
stop_daemon
daemon_flags=()
"$cli" merge "$out/telemetry" --trace-out "$out/restart.trace.json"

python3 - "$out/result1.json" "$out/result2.json" <<'EOF'
import json, sys

def canonical(path):
    result = json.load(open(path))
    assert result["state"] == "done", (path, result["state"])
    cells = {}
    for record in result["records"]:
        values = [(n, v) for n, v in record["values"] if n != "wall_clock_ns"]
        cells[record["key"]] = (record["status"], values)
    return result, cells

first, first_cells = canonical(sys.argv[1])
second, second_cells = canonical(sys.argv[2])
assert second["resumed"] >= 5, \
    f"restarted daemon resumed {second['resumed']} cells, expected >= 5"
assert first_cells == second_cells, "post-crash results differ"
print(f"check_service: kill/restart reproduced all {len(second_cells)} "
      f"cells ({second['resumed']} resumed from the journal)")
EOF

python3 - "$out/telemetry" "$out/restart.trace.json" <<'EOF'
import json, os, re, sys

# The telemetry dir holds one trace file per incarnation and nothing else.
files = sorted(os.listdir(sys.argv[1]))
assert len(files) == 2 and all(re.fullmatch(r"bvcd\.\d+\.trace\.jsonl", f)
                               for f in files), files

events = json.load(open(sys.argv[2]))["traceEvents"]
lanes = {}
for event in events:
    if event.get("name") == "process_name":
        label = event["args"]["name"]
        assert label == f"bvcd (pid {event['pid']})", label
        lanes[event["pid"]] = label
assert len(lanes) == 2, f"expected two bvcd lanes, got {lanes}"
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "the merged trace holds no span"
stray = {e["pid"] for e in spans} - set(lanes)
assert not stray, f"spans outside the bvcd lanes: pids {stray}"
print(f"check_service: the killed daemon and its restart merged into "
      f"{len(lanes)} lanes holding {len(spans)} spans")
EOF

# 4. net-sim leg. The bench journals a replica campaign; the same campaign
# submitted as a net-sim job must stream the identical records. The job's
# network below is bench_degraded_network's make_network() with an empty
# fault plan — the bench's "no faults (baseline)" cell — so the canonical
# replica keys (config digest + blocks/seed/rep) coincide.
"$sim_bench" --blocks 200 --replicas 4 --threads 2 \
  --checkpoint "$out/sim-ck.jsonl" >"$out/sim-bench.txt" 2>/dev/null

cat >"$out/netsim.json" <<'EOF'
{"kind": "net-sim", "blocks": 200, "seed": 42, "replicas": 4,
 "net": {"block_interval": 600,
         "miners": [
  {"name": "m0", "power": 0.2, "block_size": 8000000, "bandwidth": 1000000,
   "latency": 2.0, "eb": 32000000, "mg": 32000000},
  {"name": "m1", "power": 0.2, "block_size": 8000000, "bandwidth": 1000000,
   "latency": 2.0, "eb": 32000000, "mg": 32000000},
  {"name": "m2", "power": 0.2, "block_size": 8000000, "bandwidth": 1000000,
   "latency": 2.0, "eb": 32000000, "mg": 32000000},
  {"name": "m3", "power": 0.2, "block_size": 8000000, "bandwidth": 1000000,
   "latency": 2.0, "eb": 32000000, "mg": 32000000},
  {"name": "m4", "power": 0.2, "block_size": 8000000, "bandwidth": 1000000,
   "latency": 2.0, "eb": 32000000, "mg": 32000000}]}}
EOF

start_daemon "$out/state3"
"$cli" submit --port-file "$out/port.txt" --file "$out/netsim.json" \
  >"$out/submit3.json"
# tail streams each finished replica exactly once via the ?offset cursor.
"$cli" tail j1 --port-file "$out/port.txt" --timeout 600 \
  >"$out/tail3.jsonl"
"$cli" result j1 --port-file "$out/port.txt" --timeout 600 \
  >"$out/result3.json"
stop_daemon

python3 - "$out/sim-ck.jsonl" "$out/tail3.jsonl" "$out/result3.json" <<'EOF'
import json, sys

# The bench journal, keyed by canonical replica key.
bench = {}
with open(sys.argv[1]) as f:
    for line in f:
        record = json.loads(line)
        bench[record["key"]] = record["values"]

tail = [json.loads(line) for line in open(sys.argv[2])]
assert len(tail) == 4, f"tail streamed {len(tail)} records, expected 4"
assert len({r["key"] for r in tail}) == 4, "tail repeated a record"

result = json.load(open(sys.argv[3]))
assert result["state"] == "done", result["state"]
assert result["kind"] == "net-sim", result
assert result["completed"] == 4, result

for record in tail + result["records"]:
    key = record["key"]
    assert key in bench, f"service replica {key} not in the bench journal"
    values = dict(record["values"])
    assert values == bench[key], \
        f"replica {key}: service {values!r} vs bench {bench[key]!r}"
print(f"check_service: net-sim job matches the bench journal cell for cell "
      f"({len(tail)} records tailed)")
EOF

# Crash the daemon two replicas into the campaign, then restart: the
# resumed job must serve records identical to the uninterrupted service
# run's (sim records carry no wall-clock, so the match is exact).
start_daemon "$out/state4" BVC_CRASH_AFTER_CELLS=2
"$cli" submit --port-file "$out/port.txt" --file "$out/netsim.json" \
  >"$out/submit4.json"
set +e
wait "$daemon_pid"
status=$?
set -e
daemon_pid=""
[[ $status -eq 137 ]] || {
  echo "check_service.sh: expected net-sim SIGKILL death (137), got $status" >&2
  cat "$out/bvcd.log" >&2
  exit 1
}

start_daemon "$out/state4"
"$cli" result j1 --port-file "$out/port.txt" --timeout 600 \
  >"$out/result4.json"
stop_daemon

python3 - "$out/result3.json" "$out/result4.json" <<'EOF'
import json, sys

def cells(path):
    result = json.load(open(path))
    assert result["state"] == "done", (path, result["state"])
    return result, {r["key"]: (r["status"], r["values"])
                    for r in result["records"]}

first, first_cells = cells(sys.argv[1])
second, second_cells = cells(sys.argv[2])
assert second["resumed"] >= 2, \
    f"restarted daemon resumed {second['resumed']} replicas, expected >= 2"
assert first_cells == second_cells, "post-crash net-sim results differ"
print(f"check_service: net-sim kill/restart reproduced all "
      f"{len(second_cells)} replicas ({second['resumed']} resumed)")
EOF

echo "check_service.sh: OK (service matches bench; crash/restart resumes)"
