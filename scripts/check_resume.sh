#!/usr/bin/env bash
# Crash-safe sweep end-to-end test (registered as the `shard`-labeled ctest
# case check_resume): proves the ISSUE's acceptance scenario on a real bench
# binary —
#
#   1. an uninterrupted bench_table2 run is the baseline stdout;
#   2. a checkpointed run is SIGKILLed mid-sweep via the deterministic
#      crash hook (BVC_CRASH_AFTER_CELLS), leaving a well-formed journal
#      with exactly the cells that finished;
#   3. resuming from that journal replays the finished cells and computes
#      the rest — stdout must be BYTE-IDENTICAL to the baseline;
#   4. a sharded run (--shards 2) whose worker 0 is crash-injected is
#      restarted by the supervisor, completes with zero lost cells, again
#      byte-identical, and the merged manifest records the restart;
#   5-7. the kill/resume and sharded legs again over bench_table3 (a bu
#      block, then a btc block) and the kill/resume leg over
#      bench_countermeasure, so every journaled batch wrapper is covered.
#
# Usage: scripts/check_resume.sh [build-dir]   (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
[[ -d "$build" ]] || build="$repo/$1"
bench="$build/bench/bench_table2"
[[ -x "$bench" ]] || {
  echo "check_resume.sh: $bench not built" >&2
  exit 1
}

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# The injection hooks must never leak in from the caller's environment.
unset BVC_CRASH_AFTER_CELLS BVC_CRASH_SHARD

flags=(--quick --ad 3 --threads 2)

# 1. Baseline: one uninterrupted run.
"$bench" "${flags[@]}" >"$out/baseline.txt" 2>"$out/baseline.err"

# 2. Kill the sweep after 5 completed cells (SIGKILL, as the OOM killer
# would). The journal must survive, well-formed, with exactly 5 records.
set +e
BVC_CRASH_AFTER_CELLS=5 "$bench" "${flags[@]}" \
  --checkpoint "$out/ck.jsonl" >"$out/crashed.txt" 2>"$out/crashed.err"
status=$?
set -e
[[ $status -eq 137 ]] || {
  echo "check_resume.sh: expected SIGKILL death (137), got $status" >&2
  cat "$out/crashed.err" >&2
  exit 1
}
[[ -f "$out/ck.jsonl" ]] || {
  echo "check_resume.sh: crashed run left no journal" >&2
  exit 1
}
cells=$(wc -l <"$out/ck.jsonl")
[[ $cells -eq 5 ]] || {
  echo "check_resume.sh: journal has $cells cells, expected 5" >&2
  exit 1
}

# 3. Resume: the 5 journaled cells replay, the rest compute; output must be
# byte-identical to the uninterrupted baseline.
"$bench" "${flags[@]}" --checkpoint "$out/ck.jsonl" --resume \
  >"$out/resumed.txt" 2>"$out/resumed.err"
diff -u "$out/baseline.txt" "$out/resumed.txt" || {
  echo "check_resume.sh: resumed output differs from baseline" >&2
  exit 1
}

# 4. Sharded sweep with a crash-injected worker: shard 0's first
# incarnation dies after 3 cells; the supervisor restarts it (respawns
# scrub the injection env), every cell lands in the merged journal, and the
# parent's render pass reproduces the baseline byte-for-byte. The
# checkpoint name holds a backslash and a double quote, which the merged
# manifest must escape to stay valid JSON.
ck2="$out/"'c"k\2.jsonl'
BVC_CRASH_AFTER_CELLS=3 BVC_CRASH_SHARD=0 "$bench" "${flags[@]}" \
  --shards 2 --checkpoint "$ck2" \
  >"$out/sharded.txt" 2>"$out/sharded.err"
diff -u "$out/baseline.txt" "$out/sharded.txt" || {
  echo "check_resume.sh: sharded output differs from baseline" >&2
  cat "$out/sharded.err" >&2
  exit 1
}

python3 - "$ck2" <<'EOF'
import json, sys

checkpoint = sys.argv[1]
manifest = json.load(open(checkpoint + ".merged.json"))
assert manifest["checkpoint"] == checkpoint, manifest
assert manifest["shards"] == 2, manifest
assert manifest["total_restarts"] >= 1, \
    f"injected crash not recorded: {manifest['total_restarts']} restarts"
assert not manifest["cancelled"], manifest
assert not manifest["degraded"], manifest
assert manifest["merge"]["records"] > 0, manifest
outcomes = {s["index"]: s for s in manifest["shard_outcomes"]}
assert outcomes[0]["restarts"] >= 1, outcomes  # the crashed shard
assert all(s["completed"] for s in outcomes.values()), outcomes
assert all(s["journal"].startswith(checkpoint) and
           s["manifest"] == s["journal"] + ".manifest.json"
           for s in outcomes.values()), outcomes
print(f"check_resume: merged {manifest['merge']['records']} cells from "
      f"{manifest['shards']} shards, {manifest['total_restarts']} restart(s)")
EOF

# 5-7. The same recoveries through the btc and counter batch wrappers.
# crash_resume NAME CELLS BENCH FLAGS...: SIGKILL BENCH after CELLS
# journaled cells, then resume it; stdout must match "$out/NAME.txt".
crash_resume() {
  local name=$1 cells=$2 bin=$3
  shift 3
  set +e
  BVC_CRASH_AFTER_CELLS=$cells "$bin" "$@" --checkpoint "$out/$name.jsonl" \
    >/dev/null 2>"$out/$name-crashed.err"
  local status=$?
  set -e
  [[ $status -eq 137 ]] || {
    echo "check_resume.sh: $name: expected SIGKILL death (137), got $status" >&2
    cat "$out/$name-crashed.err" >&2
    exit 1
  }
  local journaled
  journaled=$(wc -l <"$out/$name.jsonl")
  [[ $journaled -eq $cells ]] || {
    echo "check_resume.sh: $name: journal has $journaled cells, expected $cells" >&2
    exit 1
  }
  "$bin" "$@" --checkpoint "$out/$name.jsonl" --resume \
    >"$out/$name-resumed.txt" 2>"$out/$name-resumed.err"
  diff -u "$out/$name.txt" "$out/$name-resumed.txt" || {
    echo "check_resume.sh: $name: resumed output differs from baseline" >&2
    exit 1
  }
}

# bench_table3 --quick runs a bu block, then a btc block: a kill after 35
# cells leaves all 31 bu cells and 4 btc cells, and the resume finishes the
# btc block.
table3="$build/bench/bench_table3"
t3_flags=(--quick --threads 2)
"$table3" "${t3_flags[@]}" --csv "$out/table3.csv" >"$out/table3.txt" \
  2>"$out/table3.err"
crash_resume table3 35 "$table3" "${t3_flags[@]}"
bu_cells=$(grep -c '"key":"bu_attack|' "$out/table3.jsonl" || true)
[[ $bu_cells -eq 31 ]] || {
  echo "check_resume.sh: table3 journal holds $bu_cells bu cells, expected 31" >&2
  exit 1
}

# Sharded bench_table3 with a crash-injected shard 1: one SweepSession
# cursor spans the bu block and the btc block; stdout and CSV must match.
BVC_CRASH_AFTER_CELLS=10 BVC_CRASH_SHARD=1 "$table3" "${t3_flags[@]}" \
  --shards 2 --checkpoint "$out/table3-sharded.jsonl" \
  --csv "$out/table3-sharded.csv" >"$out/table3-sharded.txt" \
  2>"$out/table3-sharded.err"
if ! diff -u "$out/table3.txt" "$out/table3-sharded.txt" ||
  ! cmp "$out/table3.csv" "$out/table3-sharded.csv"; then
  echo "check_resume.sh: sharded bench_table3 differs from baseline" >&2
  cat "$out/table3-sharded.err" >&2
  exit 1
fi
python3 - "$out/table3-sharded.jsonl.merged.json" <<'EOF'
import json, sys

manifest = json.load(open(sys.argv[1]))
assert manifest["total_restarts"] >= 1, \
    f"injected crash not recorded: {manifest['total_restarts']} restarts"
assert not manifest["degraded"], manifest
EOF

# bench_countermeasure runs its scenarios through counter::run_voting_batch.
counter="$build/bench/bench_countermeasure"
"$counter" --threads 2 >"$out/counter.txt" 2>"$out/counter.err"
crash_resume counter 2 "$counter" --threads 2

echo "check_resume.sh: OK (resume and sharded outputs byte-identical)"
