#!/usr/bin/env bash
# Re-records the committed kernel microbenchmark baseline: builds
# bench_solver_micro, runs its kernel comparison (the scalar CSR
# sweep vs the fused vector sweep, one row per ISA the machine can run;
# then a fixed-policy evaluation sweep, the restricted CSR loop vs the
# policy-chain sweep per ISA), and rewrites BENCH_kernel.json at the repo
# root. Rows are timed interleaved (reps round-robin across rows) so slow
# clock windows hit every row equally; still, run on a quiet machine and
# commit the refreshed JSON together with the change that moved the
# numbers. The JSON records the dispatched ISA and its speedup over the
# scalar SoA sweep; the bench exits nonzero if a vector ISA dispatches
# below the 1.3x acceptance floor or any row group disagrees bit-for-bit.
#
#   scripts/bench_record.sh              # default build dir build-ci
#   BVC_BUILD_DIR=build scripts/bench_record.sh
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BVC_BUILD_DIR:-build-ci}"

cmake -S "$repo" -B "$repo/$build" >/dev/null
cmake --build "$repo/$build" -j "$(nproc)" --target bench_solver_micro

"$repo/$build/bench/bench_solver_micro" --out="$repo/BENCH_kernel.json"

echo "bench_record.sh: wrote $repo/BENCH_kernel.json"
