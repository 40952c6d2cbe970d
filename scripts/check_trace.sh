#!/usr/bin/env bash
# Observability smoke test (also registered as the `obs`-labeled ctest case
# check_trace): runs one quick multithreaded bench with its trace and
# manifest sinks enabled and validates the artifacts:
#
#   * --trace-jsonl is one JSON object per line; `bvc-cli merge DIR
#     --trace-out` turns it into well-formed Chrome trace-event JSON
#     (loadable in chrome://tracing / https://ui.perfetto.dev) with one
#     event per line and "ph":"X" spans from at least three instrumented
#     subsystems (solver, batch/pool, cache);
#   * --manifest-out parses, embeds git SHA and argv, lists the trace
#     among its outputs, and its metrics carry the mdp.cache.* counters;
#   * a run with the sinks enabled prints byte-identical stdout to a
#     plain run (all obs chatter goes to artifacts or stderr).
#
# The daemon's telemetry dir and its offline merge (bvcd --telemetry-dir,
# bvc-cli merge) are exercised by scripts/check_prometheus.sh.
#
# Usage: scripts/check_trace.sh [build-dir]   (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
[[ -d "$build" ]] || build="$repo/$1"
bench="$build/bench/bench_table2"
cli="$build/src/svc/bvc-cli"
for bin in "$bench" "$cli"; do
  [[ -x "$bin" ]] || {
    echo "check_trace.sh: $bin not built" >&2
    exit 1
  }
done

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
mkdir "$out/traces"

jsonl="$out/traces/table2.trace.jsonl"
"$bench" --quick --threads 2 --trace-jsonl="$jsonl" \
  --manifest-out="$out/manifest.json" >"$out/stdout.txt"
"$cli" merge "$out/traces" --trace-out "$out/trace.json"

python3 - "$out" "$jsonl" <<'EOF'
import json, sys, pathlib

out = pathlib.Path(sys.argv[1])
jsonl = sys.argv[2]

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

lines = pathlib.Path(jsonl).read_text().splitlines()
assert len(lines) == len(events), (len(lines), len(events))
for line in lines:
    json.loads(line)

manifest = json.loads((out / "manifest.json").read_text())
for key in ("binary", "args", "git_sha", "metrics", "hardware_threads",
            "outputs"):
    assert key in manifest, f"manifest missing {key}"
assert manifest["git_sha"], "manifest git_sha is empty"
assert manifest["args"] == ["--quick", "--threads", "2",
                            f"--trace-jsonl={jsonl}",
                            f"--manifest-out={sys.argv[1]}/manifest.json"], \
    manifest["args"]
assert manifest["outputs"].get("trace") == jsonl, manifest["outputs"]

metrics = manifest["metrics"]
for section in ("counters", "gauges", "histograms"):
    assert section in metrics, f"manifest metrics missing {section}"
lookups = metrics["counters"].get("mdp.cache.hits", 0) + \
          metrics["counters"].get("mdp.cache.misses", 0)
assert lookups > 0, "cache instrumentation recorded no lookups"

print(f"check_trace: {len(events)} events, categories {sorted(cats)}, "
      f"{lookups} cache lookups")
EOF

# The obs sinks must be invisible on stdout: a plain run and the
# instrumented run above print byte-identical tables.
"$bench" --quick --threads 2 >"$out/plain.txt"
cmp "$out/plain.txt" "$out/stdout.txt" || {
  echo "check_trace.sh: obs sinks changed bench stdout" >&2
  diff "$out/plain.txt" "$out/stdout.txt" >&2 || true
  exit 1
}

echo "check_trace.sh: OK"
