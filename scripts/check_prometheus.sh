#!/usr/bin/env bash
# Prometheus exposition end-to-end test (registered as the `obs`-labeled
# ctest case check_prometheus):
#
#   1. bvcd is started with a telemetry dir, a small bu-attack grid is
#      solved, and `bvc-cli metrics --format=prometheus` must print a body
#      that passes a text-format lint (legal metric names, one TYPE per
#      family, ascending cumulative `le` buckets, +Inf == _count) and
#      carries the solve counters;
#   2. the JSON endpoint keeps working (`--format=json` parses and holds
#      the same counter values) and `--format=bogus` exits 4 (HTTP 400);
#   3. after a graceful daemon shutdown, `bvc-cli merge` folds the
#      daemon's flushed telemetry dir into one metrics snapshot (JSON and
#      Prometheus, both linted) and one merged Chrome trace.
#
# Usage: scripts/check_prometheus.sh [build-dir]   (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
[[ -d "$build" ]] || build="$repo/$1"
bvcd="$build/src/svc/bvcd"
cli="$build/src/svc/bvc-cli"
for bin in "$bvcd" "$cli"; do
  [[ -x "$bin" ]] || {
    echo "check_prometheus.sh: $bin not built" >&2
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

unset BVC_CRASH_AFTER_CELLS

# The format lint, shared by every exposition produced below. Reads one
# exposition file; exits non-zero with a diagnostic on any violation.
lint() {  # lint <exposition-file> [required-substring...]
  python3 - "$@" <<'EOF'
import re, sys

NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
path = sys.argv[1]
lines = open(path).read().splitlines()
assert lines, f"{path}: empty exposition"

typed = {}        # family -> declared type
buckets = {}      # family -> list[(le, cumulative)]
samples = {}      # full sample name (incl. suffix) -> value token
for line in lines:
    if not line:
        continue
    if line.startswith("#"):
        parts = line.split(None, 3)
        assert len(parts) >= 3 and parts[1] in ("HELP", "TYPE"), line
        assert NAME.match(parts[2]), f"bad family name: {line}"
        if parts[1] == "TYPE":
            assert parts[2] not in typed, f"duplicate TYPE for {parts[2]}"
            typed[parts[2]] = parts[3]
        continue
    match = re.match(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$", line)
    assert match, f"unparseable sample line: {line!r}"
    name, labels, value = match.groups()
    if value not in ("NaN", "+Inf", "-Inf"):
        float(value)
    samples[name] = value
    if name.endswith("_bucket") and labels:
        le = re.search(r'le="([^"]*)"', labels)
        assert le, f"bucket without le label: {line}"
        family = name[: -len("_bucket")]
        bound = float("inf") if le.group(1) == "+Inf" else float(le.group(1))
        buckets.setdefault(family, []).append((bound, float(value)))

for family, rows in buckets.items():
    assert typed.get(family) == "histogram", f"{family} buckets untyped"
    bounds = [b for b, _ in rows]
    counts = [c for _, c in rows]
    assert bounds == sorted(bounds), f"{family}: le not ascending: {bounds}"
    assert bounds[-1] == float("inf"), f"{family}: missing +Inf bucket"
    assert counts == sorted(counts), \
        f"{family}: buckets not cumulative: {counts}"
    count = samples.get(family + "_count")
    assert count is not None, f"{family}: missing _count"
    assert samples.get(family + "_sum") is not None, f"{family}: missing _sum"
    assert counts[-1] == float(count), \
        f"{family}: +Inf {counts[-1]} != _count {count}"

for needle in sys.argv[2:]:
    assert any(needle in line for line in lines), \
        f"{path}: expected a line containing {needle!r}"
print(f"lint ok: {path} ({len(samples)} samples, "
      f"{len(typed)} families, {len(buckets)} histograms)")
EOF
}

# 1. Live daemon scrape.
rm -f "$out/port.txt"
"$bvcd" --port-file "$out/port.txt" --state-dir "$out/state" \
  --telemetry-dir "$out/telemetry" --threads 2 >"$out/bvcd.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$out/port.txt" ]] && break
  kill -0 "$daemon_pid" 2>/dev/null || break
  sleep 0.1
done
[[ -s "$out/port.txt" ]] || {
  echo "check_prometheus.sh: bvcd did not start" >&2
  cat "$out/bvcd.log" >&2
  exit 1
}

cat >"$out/job.json" <<'EOF'
{"kind": "bu-attack",
 "utility": "relative-revenue",
 "grid": {"alphas": [0.1, 0.2], "ratios": [[1, 1]], "ad": 3, "setting": 1}}
EOF
"$cli" submit --port-file "$out/port.txt" --file "$out/job.json" >/dev/null
"$cli" result j1 --port-file "$out/port.txt" --timeout 600 >/dev/null

"$cli" metrics --format=prometheus --port-file "$out/port.txt" \
  >"$out/scrape.prom"
lint "$out/scrape.prom" "svc_jobs_submitted 1" "svc_jobs_done 1" \
  "mdp_cache_" "# TYPE svc_jobs_active gauge"

# 2. The JSON endpoint keeps working; an unknown format exits 4.
"$cli" metrics --format=json --port-file "$out/port.txt" >"$out/scrape.json"
python3 - "$out/scrape.json" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
for section in ("counters", "gauges", "histograms"):
    assert section in metrics, f"metrics JSON missing {section}"
assert metrics["counters"].get("svc.jobs.submitted") == 1, metrics["counters"]
print("json endpoint ok")
EOF
set +e
"$cli" metrics --format=bogus --port-file "$out/port.txt" \
  >/dev/null 2>&1
status=$?
set -e
[[ $status -eq 4 ]] || {
  echo "check_prometheus.sh: --format=bogus exited $status, expected 4" >&2
  exit 1
}

# 3. Graceful shutdown flushes the daemon's telemetry; merge the dir.
kill "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
"$cli" merge "$out/telemetry" \
  --metrics-out "$out/merged.json" \
  --prom-out "$out/merged.prom" \
  --trace-out "$out/merged.trace.json"
lint "$out/merged.prom" "svc_jobs_done 1"
python3 - "$out/merged.json" "$out/merged.trace.json" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
assert metrics["counters"].get("svc.jobs.done") == 1, metrics["counters"]
trace = json.load(open(sys.argv[2]))
events = trace["traceEvents"]
pids = {e["pid"] for e in events if e.get("ph") == "X"}
assert len(pids) == 1, f"expected one daemon pid lane, got {pids}"
names = {e["args"]["name"] for e in events if e.get("name") == "process_name"}
assert any("bvcd" in n for n in names), f"no bvcd lane label in {names}"
print(f"merge ok: {len(events)} trace events from pids {sorted(pids)}")
EOF

echo "check_prometheus.sh: OK"
