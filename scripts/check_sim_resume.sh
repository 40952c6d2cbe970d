#!/usr/bin/env bash
# Crash-safe simulation-campaign test (registered as a `sim`-labeled ctest
# case check_sim_resume): proves the replica engine's acceptance scenario on
# the real bench binary —
#
#   1. an uninterrupted `bench_degraded_network --replicas 3` run is the
#      baseline stdout (every cell averaged over 3 journaled replicas);
#   2. a checkpointed run is SIGKILLed mid-campaign via the deterministic
#      crash hook (BVC_CRASH_AFTER_CELLS), leaving a well-formed journal
#      with exactly the replicas that finished;
#   3. resuming from that journal replays the finished replicas and
#      computes the rest — stdout must be BYTE-IDENTICAL to the baseline;
#   4. the same SIGKILL -> --resume round trip holds at topology scale: a
#      1000-node gossip campaign (--nodes 1000) is killed mid-run and the
#      resumed stdout is byte-identical to its own uninterrupted baseline.
#
# Usage: scripts/check_sim_resume.sh [build-dir]   (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
[[ -d "$build" ]] || build="$repo/$1"
bench="$build/bench/bench_degraded_network"
[[ -x "$bench" ]] || {
  echo "check_sim_resume.sh: $bench not built" >&2
  exit 1
}

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# The injection hooks must never leak in from the caller's environment.
unset BVC_CRASH_AFTER_CELLS

flags=(--blocks 300 --replicas 3 --threads 2)

# 1. Baseline: one uninterrupted run (15 cells x 3 replicas).
"$bench" "${flags[@]}" >"$out/baseline.txt" 2>"$out/baseline.err"

# 2. Kill the campaign after 7 journaled replicas (SIGKILL, as the OOM
# killer would). The journal must survive, well-formed, with exactly 7
# records.
set +e
BVC_CRASH_AFTER_CELLS=7 "$bench" "${flags[@]}" \
  --checkpoint "$out/ck.jsonl" >"$out/crashed.txt" 2>"$out/crashed.err"
status=$?
set -e
[[ $status -eq 137 ]] || {
  echo "check_sim_resume.sh: expected SIGKILL death (137), got $status" >&2
  cat "$out/crashed.err" >&2
  exit 1
}
replicas=$(wc -l <"$out/ck.jsonl")
[[ $replicas -eq 7 ]] || {
  echo "check_sim_resume.sh: journal has $replicas replicas, expected 7" >&2
  exit 1
}

# 3. Resume: the 7 journaled replicas replay (sim_restore), the rest
# compute; stdout must be byte-identical to the uninterrupted baseline.
"$bench" "${flags[@]}" --checkpoint "$out/ck.jsonl" --resume \
  >"$out/resumed.txt" 2>"$out/resumed.err"
diff -u "$out/baseline.txt" "$out/resumed.txt" || {
  echo "check_sim_resume.sh: resumed output differs from baseline" >&2
  exit 1
}
grep -q "7 cells resumed" "$out/resumed.err" || {
  echo "check_sim_resume.sh: resume did not replay the journal:" >&2
  cat "$out/resumed.err" >&2
  exit 1
}

# 4. Thousand-node scale: the acceptance scenario again, but with every
# cell gossiping through a 1000-node random topology (miners at nodes
# 0..4, everyone else relay-only). Crash after 5 journaled replicas,
# resume, and demand byte-identical stdout.
flags_big=(--blocks 40 --replicas 2 --nodes 1000 --threads 2)

"$bench" "${flags_big[@]}" >"$out/big-baseline.txt" 2>"$out/big-baseline.err"

set +e
BVC_CRASH_AFTER_CELLS=5 "$bench" "${flags_big[@]}" \
  --checkpoint "$out/big-ck.jsonl" \
  >"$out/big-crashed.txt" 2>"$out/big-crashed.err"
status=$?
set -e
[[ $status -eq 137 ]] || {
  echo "check_sim_resume.sh: expected SIGKILL death at scale (137), got $status" >&2
  cat "$out/big-crashed.err" >&2
  exit 1
}

"$bench" "${flags_big[@]}" --checkpoint "$out/big-ck.jsonl" --resume \
  >"$out/big-resumed.txt" 2>"$out/big-resumed.err"
diff -u "$out/big-baseline.txt" "$out/big-resumed.txt" || {
  echo "check_sim_resume.sh: 1000-node resumed output differs from baseline" >&2
  exit 1
}
grep -q "5 cells resumed" "$out/big-resumed.err" || {
  echo "check_sim_resume.sh: 1000-node resume did not replay the journal:" >&2
  cat "$out/big-resumed.err" >&2
  exit 1
}

echo "check_sim_resume.sh: OK (resumed and 1000-node campaigns byte-identical)"
