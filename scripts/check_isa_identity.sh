#!/usr/bin/env bash
# ISA-independence end-to-end test (registered as the ctest case
# check_isa_identity): the paper's tables must not depend on which sweep
# kernel the host dispatches to. bench_table3 and bench_table4 run three
# times: with the vector kernels forced off (BVC_KERNEL=scalar, the path
# every CPU without AVX2 takes), with the AVX2 bodies forced
# (BVC_KERNEL=avx2, so an AVX-512 host checks them end to end too), and
# under default dispatch; stdout and the --csv output of the avx2 and
# default runs must be byte-identical to the scalar run's. The
# default-dispatch CSV must also equal the reproduced values the benchmark
# checks against (perfbench/reference/table3.txt and table4.txt, read only).
#
# On a host without AVX2 every run takes the scalar path and the check
# passes trivially (an avx2 request degrades to scalar). Takes about 12 s
# on 4 cores.
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
  for isa in scalar avx2 default; do
    if [[ "$isa" == default ]]; then
      run=(env -u BVC_KERNEL)
    else
      run=(env BVC_KERNEL="$isa")
    fi
    "${run[@]}" "$bench" --threads 4 --csv "$out/$table.$isa.csv" \
      >"$out/$table.$isa.txt" 2>"$out/$table.$isa.err" || {
      echo "check_isa_identity.sh: bench_$table failed under $isa dispatch" >&2
      cat "$out/$table.$isa.err" >&2
      exit 1
    }
  done
  for isa in avx2 default; do
    for kind in txt csv; do
      if ! cmp -s "$out/$table.scalar.$kind" "$out/$table.$isa.$kind"; then
        echo "check_isa_identity.sh: bench_$table $kind differs between" \
          "scalar and $isa dispatch:" >&2
        diff "$out/$table.scalar.$kind" "$out/$table.$isa.$kind" >&2 || true
        status=1
      fi
    done
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
    "under scalar, avx2 and default dispatch, CSV equal to" \
    "perfbench/reference"
fi
exit "$status"
