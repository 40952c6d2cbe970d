#!/usr/bin/env bash
# Observability smoke test (also registered as the `obs`-labeled ctest case
# check_trace): runs one quick multithreaded bench with every obs sink
# enabled and validates the artifacts:
#
#   * --trace-out is well-formed Chrome trace-event JSON (loadable in
#     chrome://tracing / https://ui.perfetto.dev) with "ph":"X" spans from
#     at least three instrumented subsystems (solver, batch/pool, cache);
#   * --trace-jsonl is one JSON object per line, same event count;
#   * --metrics-out parses and carries the mdp.cache.* counters;
#   * --manifest-out parses and embeds git SHA, argv, and the metrics;
#   * a run with every sink enabled prints byte-identical stdout to a
#     plain run (all obs chatter goes to artifacts or stderr).
#
# The telemetry dir and its offline merge (bvcd --telemetry-dir, bvc-cli
# merge) are exercised by scripts/check_prometheus.sh.
#
# Usage: scripts/check_trace.sh [build-dir]   (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
[[ -d "$build" ]] || build="$repo/$1"
bench="$build/bench/bench_table2"
[[ -x "$bench" ]] || {
  echo "check_trace.sh: $bench not built" >&2
  exit 1
}

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

"$bench" --quick --threads 2 \
  --trace-out="$out/trace.json" \
  --trace-jsonl="$out/trace.jsonl" \
  --metrics-out="$out/metrics.json" \
  --manifest-out="$out/manifest.json" >"$out/stdout.txt"

python3 - "$out" <<'EOF'
import json, sys, pathlib

out = pathlib.Path(sys.argv[1])

trace = json.loads((out / "trace.json").read_text())
events = trace["traceEvents"]
assert events, "trace has no events"
spans = [e for e in events if e.get("ph") == "X"]
cats = {e["cat"] for e in spans}
# The acceptance bar: spans from the solver, the batch engine / thread
# pool, and the model cache must all appear in one multithreaded run.
required = {"solver", "cache"}
assert required <= cats, f"missing span categories: {required - cats}"
assert {"batch", "pool"} & cats, f"no batch/pool spans in {cats}"
for event in events:
    for key in ("name", "cat", "ts", "pid", "tid"):
        assert key in event, f"event missing {key}: {event}"

lines = (out / "trace.jsonl").read_text().splitlines()
assert len(lines) == len(events), (len(lines), len(events))
for line in lines:
    json.loads(line)

metrics = json.loads((out / "metrics.json").read_text())
for section in ("counters", "gauges", "histograms"):
    assert section in metrics, f"metrics missing {section}"
lookups = metrics["counters"].get("mdp.cache.hits", 0) + \
          metrics["counters"].get("mdp.cache.misses", 0)
assert lookups > 0, "cache instrumentation recorded no lookups"

manifest = json.loads((out / "manifest.json").read_text())
for key in ("binary", "args", "git_sha", "metrics", "hardware_threads"):
    assert key in manifest, f"manifest missing {key}"
assert manifest["git_sha"], "manifest git_sha is empty"

print(f"check_trace: {len(events)} events, categories {sorted(cats)}, "
      f"{lookups} cache lookups")
EOF

# The obs sinks must be invisible on stdout: a plain run and the fully
# instrumented run above print byte-identical tables.
"$bench" --quick --threads 2 >"$out/plain.txt"
cmp "$out/plain.txt" "$out/stdout.txt" || {
  echo "check_trace.sh: obs sinks changed bench stdout" >&2
  diff "$out/plain.txt" "$out/stdout.txt" >&2 || true
  exit 1
}

echo "check_trace.sh: OK"
