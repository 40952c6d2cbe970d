// Monte-Carlo rollout of a fixed policy on a sparse model: samples
// successor states from the outcome distributions and accumulates both
// reward streams. An independent check of the analytic gain/ratio solvers
// (the solvers iterate expectations; the rollout samples trajectories).
#pragma once

#include <cstdint>

#include "mdp/average_reward.hpp"
#include "robust/run_control.hpp"
#include "util/rng.hpp"

namespace bvc::mdp {

struct ModelRolloutResult {
  double reward_total = 0.0;  ///< accumulated numerator stream
  double weight_total = 0.0;  ///< accumulated denominator stream
  std::uint64_t steps = 0;    ///< steps actually simulated
  /// kConverged when all requested steps ran; kBudgetExhausted/kCancelled
  /// when the rollout was stopped early (totals cover `steps` steps).
  robust::RunStatus status = robust::RunStatus::kConverged;

  /// reward_total / weight_total (the ratio-objective estimate), or 0 when
  /// no denominator mass accrued.
  [[nodiscard]] double ratio() const noexcept {
    return weight_total != 0.0 ? reward_total / weight_total : 0.0;
  }
  /// reward_total / steps (the average-reward estimate).
  [[nodiscard]] double reward_rate() const noexcept {
    return steps != 0 ? reward_total / static_cast<double>(steps) : 0.0;
  }
};

/// Simulates `steps` transitions from `start` under `policy`. One guard
/// tick per step; the wall clock is only sampled every ~1k steps, so an
/// unlimited budget costs nothing in this hot loop. Samples the SoA outcome
/// columns directly.
[[nodiscard]] ModelRolloutResult rollout_model(
    const CompiledModel& model, const Policy& policy, StateId start,
    std::uint64_t steps, Rng& rng, const robust::RunControl& control = {});

}  // namespace bvc::mdp
