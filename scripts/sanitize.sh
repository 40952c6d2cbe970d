#!/usr/bin/env bash
# Tier-2 check: build the whole tree under sanitizers and run the full test
# suite. Slower than the tier-1 build, so each tier lives in its own build
# directory and is run on demand:
#
#   scripts/sanitize.sh                  # ASan+UBSan: configure+build+ctest
#   scripts/sanitize.sh address -R Fault # same, forwarding args to ctest
#   scripts/sanitize.sh address -L shard # journal + kill/resume suites only
#   scripts/sanitize.sh thread           # TSan over the full suite
#   scripts/sanitize.sh thread -L parallel   # TSan, parallel-labeled only
#
# The optional first argument picks the tier (address | thread, default
# address — matches the historical behaviour); everything after it is
# forwarded to ctest. BVC_SANITIZE=thread on the cmake line selects TSan
# (see the top-level CMakeLists.txt).
#
# Every tier runs the FULL ctest suite, so the CompiledModel tests
# (test_compiled_model: each cell's template instance against
# ModelBuilder's model of it) run under each sanitizer, and the thread
# tier additionally exercises the shared ModelCache under concurrent
# lookups via the parallel-labeled test_model_cache. The address tier also
# covers the shard-labeled crash-safety suite (test_checkpoint, including
# the journal's failed-write branch, + check_resume): the kill-mid-sweep ->
# resume scenario runs once under ASan/UBSan here, on top of the
# plain-build run in ci.sh, and so does the obs-labeled suite (trace and
# metrics export, bvcd's telemetry dir and its merge). The address
# tier then re-runs the kernel-labeled suite with BVC_KERNEL=avx512, so
# the AVX-512 bodies' palette-code loads (8 bytes per 8 lanes) run under
# ASan/UBSan on any host that has AVX-512, whatever BVC_KERNEL the caller
# set. The thread tier additionally re-runs the sim-labeled suite in
# isolation so sim::run_replicas' multi-threaded replica fan-out
# (test_sim_replicas drives it at --threads 8) is explicitly TSan-covered.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

tier="address"
case "${1:-}" in
  address|thread)
    tier="$1"
    shift
    ;;
esac

if [ "$tier" = "thread" ]; then
  build="$repo/build-sanitize-thread"
  cmake -B "$build" -S "$repo" -DBVC_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j"$(nproc)"
  export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1
else
  build="$repo/build-sanitize"
  cmake -B "$build" -S "$repo" -DBVC_SANITIZE=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j"$(nproc)"
  export ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1
  export UBSAN_OPTIONS=print_stacktrace=1
fi

ctest --test-dir "$build" --output-on-failure -j"$(nproc)" "$@"

# Thread tier: re-run the sim-labeled suite in isolation so the replica
# fan-out (sim::run_replicas at --threads 8 in test_sim_replicas) and the
# event-engine tests get an explicit, named TSan pass. The obs-labeled
# suite follows for the same reason: test_event_log hammers the global
# EventLog from concurrent writers, and the telemetry/trace tests exercise
# the flusher's background thread (bvcd --telemetry-dir) against the
# metrics registry.
if [ "$tier" = "thread" ]; then
  ctest --test-dir "$build" --output-on-failure -L sim
  ctest --test-dir "$build" --output-on-failure -L obs
else
  # Address tier: the kernel-labeled suite again with the AVX-512 bodies
  # forced (they clamp to the best available ISA on other CPUs).
  BVC_KERNEL=avx512 ctest --test-dir "$build" --output-on-failure -L kernel
fi
