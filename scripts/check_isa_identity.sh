#!/usr/bin/env bash
# ISA-independence end-to-end test (registered as the ctest case
# check_isa_identity): the paper's tables must not depend on which sweep
# kernel the host dispatches to. bench_table3 and bench_table4 run twice,
# once with the vector kernels forced off (BVC_KERNEL=scalar, the path
# every CPU without AVX2 takes) and once under default dispatch; stdout and
# the --csv output must be byte-identical between the two runs. The
# default-dispatch CSV must also equal the reproduced values the benchmark
# checks against (perfbench/reference/table3.txt and table4.txt, read only).
#
# On a host without AVX2 both runs take the scalar path and the check
# passes trivially. Takes about 10 s on 4 cores.
#
# Usage: scripts/check_isa_identity.sh [build-dir]   (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
[[ -d "$build" ]] || build="$repo/$1"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

status=0
for table in table3 table4; do
  bench="$build/bench/bench_$table"
  [[ -x "$bench" ]] || {
    echo "check_isa_identity.sh: $bench not built" >&2
    exit 1
  }
  for isa in scalar default; do
    if [[ "$isa" == scalar ]]; then
      run=(env BVC_KERNEL=scalar)
    else
      run=(env -u BVC_KERNEL)
    fi
    "${run[@]}" "$bench" --threads 4 --csv "$out/$table.$isa.csv" \
      >"$out/$table.$isa.txt" 2>"$out/$table.$isa.err" || {
      echo "check_isa_identity.sh: bench_$table failed under $isa dispatch" >&2
      cat "$out/$table.$isa.err" >&2
      exit 1
    }
  done
  for kind in txt csv; do
    if ! cmp -s "$out/$table.scalar.$kind" "$out/$table.default.$kind"; then
      echo "check_isa_identity.sh: bench_$table $kind differs between" \
        "scalar and default dispatch:" >&2
      diff "$out/$table.scalar.$kind" "$out/$table.default.$kind" >&2 || true
      status=1
    fi
  done
  reference="$repo/perfbench/reference/$table.txt"
  if ! cmp -s "$reference" "$out/$table.default.csv"; then
    echo "check_isa_identity.sh: bench_$table CSV differs from" \
      "$reference:" >&2
    diff "$reference" "$out/$table.default.csv" >&2 || true
    status=1
  fi
done

if [[ "$status" -eq 0 ]]; then
  echo "check_isa_identity.sh: bench_table3/4 stdout and CSV identical" \
    "under scalar and default dispatch, CSV equal to perfbench/reference"
fi
exit "$status"
