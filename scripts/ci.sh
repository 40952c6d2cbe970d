#!/usr/bin/env bash
# Tier-1 CI entry point: configure, build everything (libraries, tests,
# bench binaries), then run the ctest suite once: the unlabeled tests and
# the parallel, kernel and svc labels in one pass, then the obs, resume,
# sim and counts labels each as its own named step (the obs step includes
# scripts/check_trace.sh, the observability smoke). The kernel legs and
# the scalar pass at the end re-run tests under other ISAs on purpose.
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

# Every test runs once: the labels below get their own named steps, so the
# full pass leaves them out.
ctest --test-dir "$repo/$build" --output-on-failure \
  -LE '^(obs|resume|sim|counts)$' "$@"

# Telemetry-plane gate, surfaced as its own named step: the obs-labeled
# suite (metrics and trace export, the event log's stderr lines and rate
# limit, the telemetry dir's flush and trace merge, plus the check_trace
# observability smoke — one quick two-threaded table run with its trace
# and manifest sinks, loadable artifacts with spans from >= 3 subsystems,
# one cache.compile span per template built, byte-stable bench stdout)
# must pass in isolation.
ctest --test-dir "$repo/$build" --output-on-failure -L obs

# Crash-safety gate, surfaced as its own named step: the resume-labeled
# tests (checkpoint journal and checkpointed batch unit tests +
# scripts/check_resume.sh, which SIGKILLs bench_table2, bench_table3 and
# bench_countermeasure mid-sweep and demands byte-identical resumes) must
# pass in isolation.
ctest --test-dir "$repo/$build" --output-on-failure -L resume

# Simulation gate: the sim-labeled suite (event engine, fixed-seed
# regression vectors, replica determinism incl. threads-1-vs-8 and
# journal resume, network sim + relay topologies,
# scripts/check_sim_resume.sh's SIGKILL -> byte-identical resume, and
# bench_sim_validation's closed-form checks and scale probe) must pass in
# isolation.
ctest --test-dir "$repo/$build" --output-on-failure -L sim

# Counts gate, surfaced as its own named step: the paper-table benches and
# the default fault-injection campaign must report exactly the counts of
# work committed in BENCH_counts.json (scripts/check_counts.sh). Counts do
# not drift with the host, so this is where a change's work reduction, or
# an unintended extra sweep, shows up.
ctest --test-dir "$repo/$build" --output-on-failure -L counts

# Kernel dispatch gate: the kernel-labeled suite (ISA equivalence, fused
# sweep and chain-sweep bit-identity, the CompiledModel layout and its
# palette codes) must hold under each vector ISA, so the solver-level
# greedy and fixed-policy evaluation paths run on AVX2 as well as on the
# ISA auto dispatch picks. There is no auto leg: kernel::resolve takes the
# same branch for auto and avx512 on every host, so it would repeat the
# avx512 leg. There is no scalar leg: the scalar full-suite pass below
# runs the kernel label too. Requests clamp to what the CPU has and
# vector-ISA cases GTEST_SKIP on machines without AVX2/AVX-512, so every
# pass stays green (not red) on any hardware; the env var additionally
# proves the override path end to end.
for isa in avx2 avx512; do
  BVC_KERNEL=$isa ctest --test-dir "$repo/$build" --output-on-failure -L kernel
done

# Scalar-host gate: the whole suite once more with the vector kernels
# forced off — the configuration a CPU without AVX2 runs. Every solver
# sweeps through the same kernel path on every ISA, so every test must
# pass here exactly as above.
BVC_KERNEL=scalar ctest --test-dir "$repo/$build" --output-on-failure

echo "ci.sh: all checks passed"
