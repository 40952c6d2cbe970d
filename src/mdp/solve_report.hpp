// Common base of every solver result in this library.
//
// All three MDP solvers (average_reward, policy_iteration, ratio) and the
// analysis layers on top of them (bu::AnalysisResult, btc::SmResult) report
// how the solve ended through this one shape, so generic consumers —
// bench_common::require_solved, the batch engine, CSV sinks — work on any
// solver result without per-type duplication.
#pragma once

#include <cstdint>

#include "robust/run_control.hpp"

namespace bvc::mdp {

struct SolveReport {
  /// How the solve ended. Only kConverged certifies the reported values.
  robust::RunStatus status = robust::RunStatus::kToleranceStalled;
  /// Top-level iteration count; what one iteration is depends on the
  /// solver (RVI sweeps, policy-iteration improvement rounds, outer
  /// Dinkelbach/bisection steps). Derived results expose a semantically
  /// named accessor (sweeps(), improvements(), ...) on top.
  int iterations = 0;
  /// Wall-clock time of the whole solve.
  std::int64_t wall_clock_ns = 0;
  /// Post-mortem details (nested solve counts, trajectories, retries);
  /// empty for solvers without nested structure.
  robust::SolveDiagnostics diagnostics;

  /// Replaces the old `bool converged` field every result used to carry
  /// (it merely mirrored `status == kConverged`).
  [[nodiscard]] bool converged() const noexcept {
    return robust::is_success(status);
  }

  /// Stopped early but still usable as an approximation (budget/iteration
  /// cap; not cancellation or degeneracy).
  [[nodiscard]] bool partial() const noexcept {
    return robust::is_partial(status);
  }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return static_cast<double>(wall_clock_ns) * 1e-9;
  }
};

}  // namespace bvc::mdp
