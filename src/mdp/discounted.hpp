// Discounted-reward value iteration. Not used by the paper's evaluation
// (which needs long-run averages), but handy for sanity checks and as a
// reference implementation when validating the average-reward solver:
// (1 - beta) * V_beta -> gain as beta -> 1 for unichain MDPs.
#pragma once

#include <vector>

#include "mdp/average_reward.hpp"
#include "mdp/model.hpp"

namespace bvc::mdp {

/// The discounted-value-iteration knob block.
struct DiscountedKnobs {
  double discount = 0.999;  ///< beta in (0, 1)
  double tolerance = 1e-10;
  int max_sweeps = 1000000;
  /// Budget/cancellation; one guard tick per sweep. On exhaustion the
  /// current value vector and greedy policy are returned as-is.
  robust::RunControl control;
};

struct DiscountedResult : SolveReport {
  std::vector<double> value;
  Policy policy;

  /// Value-iteration sweeps performed (the base report's iteration count).
  [[nodiscard]] int sweeps() const noexcept { return iterations; }
};

/// Maximizes expected discounted primary-stream reward from every state.
/// The CompiledModel overload sweeps the SoA kernel layout; the Model
/// overload compiles on entry and forwards, bit-identically.
[[nodiscard]] DiscountedResult solve_discounted(
    const CompiledModel& model, const DiscountedKnobs& options = {});
[[nodiscard]] DiscountedResult solve_discounted(
    const Model& model, const DiscountedKnobs& options = {});

}  // namespace bvc::mdp
