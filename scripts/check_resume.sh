#!/usr/bin/env bash
# Crash-safe sweep end-to-end test (registered as the `resume`-labeled ctest
# case check_resume): the kill-and-resume scenario on real bench binaries —
#
#   1. an uninterrupted bench_table2 run is the baseline stdout;
#   2. a checkpointed run is SIGKILLed mid-sweep via the deterministic
#      crash hook (BVC_CRASH_AFTER_CELLS), leaving a well-formed journal
#      with exactly the cells that finished;
#   3. resuming from that journal replays the finished cells and computes
#      the rest — stdout must be BYTE-IDENTICAL to the baseline;
#   4-5. the kill/resume leg again over bench_table3 (a bu block, then a
#      btc block, one journal across both; stdout and CSV must match) and
#      over bench_countermeasure, so every journaled batch wrapper is
#      covered.
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
unset BVC_CRASH_AFTER_CELLS

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

# 4-5. The same recovery through the btc and counter batch wrappers.
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
# btc block. The resumed CSV must match the baseline's too.
table3="$build/bench/bench_table3"
t3_flags=(--quick --threads 2)
"$table3" "${t3_flags[@]}" --csv "$out/table3.csv" >"$out/table3.txt" \
  2>"$out/table3.err"
crash_resume table3 35 "$table3" "${t3_flags[@]}" \
  --csv "$out/table3-resumed.csv"
cmp "$out/table3.csv" "$out/table3-resumed.csv" || {
  echo "check_resume.sh: table3: resumed CSV differs from baseline" >&2
  exit 1
}
bu_cells=$(grep -c '"key":"bu_attack|' "$out/table3.jsonl" || true)
[[ $bu_cells -eq 31 ]] || {
  echo "check_resume.sh: table3 journal holds $bu_cells bu cells, expected 31" >&2
  exit 1
}

# bench_countermeasure runs its scenarios through counter::run_voting_batch.
counter="$build/bench/bench_countermeasure"
"$counter" --threads 2 >"$out/counter.txt" 2>"$out/counter.err"
crash_resume counter 2 "$counter" --threads 2

echo "check_resume.sh: OK (resumed outputs byte-identical)"
