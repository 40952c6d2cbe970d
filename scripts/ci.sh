#!/usr/bin/env bash
# Tier-1 CI entry point: configure, build everything (libraries, tests,
# bench binaries), run the full ctest suite, then smoke-test the
# observability layer end to end — a real multithreaded bench run with
# --trace-jsonl/--manifest-out, validated by scripts/check_trace.sh (JSON
# well-formedness + spans from the solver, batch/pool, and cache
# subsystems).
#
#   scripts/ci.sh                # everything, default build dir build-ci
#   scripts/ci.sh -R Ratio       # forward extra args to ctest
#   BVC_BUILD_DIR=build-dev scripts/ci.sh   # reuse an existing build dir
#
# Sanitizer tiers are separate (scripts/sanitize.sh); this script is the
# fast gate every change must pass.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BVC_BUILD_DIR:-build-ci}"

cmake -S "$repo" -B "$repo/$build" >/dev/null
cmake --build "$repo/$build" -j "$(nproc)"

ctest --test-dir "$repo/$build" --output-on-failure "$@"

# Observability smoke: one quick two-threaded table run with its trace and
# manifest sinks enabled must produce loadable artifacts with spans from
# >= 3 subsystems.
"$repo/scripts/check_trace.sh" "$repo/$build"

# Telemetry-plane gate, surfaced as its own named step: the obs-labeled
# suite (event log, Prometheus exposition, the telemetry dir's flush and
# merge, plus the check_trace and check_prometheus end-to-end scripts —
# live bvcd scrape, bvcd --telemetry-dir merged by bvc-cli merge,
# byte-stable bench stdout) must pass in isolation, not just inside the
# full suite above.
ctest --test-dir "$repo/$build" --output-on-failure -L obs

# Crash-safety gate, surfaced as its own named step: the shard-labeled
# tests (checkpoint journal and checkpointed batch unit tests +
# scripts/check_resume.sh, which SIGKILLs bench_table2, bench_table3 and
# bench_countermeasure mid-sweep and demands byte-identical resumes) must
# pass in isolation, not just inside the full suite above.
ctest --test-dir "$repo/$build" --output-on-failure -L shard

# Simulation gate: the sim-labeled suite (event engine, fixed-seed
# regression vectors, replica determinism incl. threads-1-vs-8 and
# journal resume, network sim + relay topologies,
# scripts/check_sim_resume.sh's SIGKILL -> byte-identical resume, and
# bench_sim_validation's closed-form checks and scale probe) must pass in
# isolation, not just inside the full suite above.
ctest --test-dir "$repo/$build" --output-on-failure -L sim

# Counts gate, surfaced as its own named step: the paper-table benches and
# the default fault-injection campaign must report exactly the counts of
# work committed in BENCH_counts.json (scripts/check_counts.sh). Counts do
# not drift with the host, so this is where a change's work reduction, or
# an unintended extra sweep, shows up.
ctest --test-dir "$repo/$build" --output-on-failure -L counts

# Kernel dispatch gate: the kernel-labeled suite (ISA equivalence, fused
# sweep and chain-sweep bit-identity, the CompiledModel layout and its
# palette codes) must hold with the vector kernels forced off, under each vector ISA, and under auto
# dispatch — the explicit avx2/avx512 passes run the solver-level greedy
# and fixed-policy evaluation paths on each vector ISA, not only on the
# one auto picks. Requests clamp to what the CPU has and vector-ISA
# cases GTEST_SKIP on machines without AVX2/AVX-512, so every pass stays
# green (not red) on any hardware; the env var additionally proves the
# override path end to end.
for isa in scalar avx2 avx512 auto; do
  BVC_KERNEL=$isa ctest --test-dir "$repo/$build" --output-on-failure -L kernel
done

# Scalar-host gate: the whole suite once more with the vector kernels
# forced off — the configuration a CPU without AVX2 runs. Every solver
# sweeps through the same kernel path on every ISA, so every test must
# pass here exactly as above.
BVC_KERNEL=scalar ctest --test-dir "$repo/$build" --output-on-failure

echo "ci.sh: all checks passed"
