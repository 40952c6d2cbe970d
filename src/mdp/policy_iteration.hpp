// Howard's policy iteration for unichain average-reward MDPs, with *exact*
// policy evaluation by dense Gaussian elimination.
//
// Complementary to relative value iteration (average_reward.hpp): RVI
// scales to the large setting-2 models but converges geometrically; policy
// iteration is O(n^3) per evaluation yet terminates in a handful of
// improvement steps with machine-precision gains. We use it as an
// independent oracle in tests (same optimum from a structurally different
// algorithm) and for small models where exactness is worth the cubic cost.
#pragma once

#include <vector>

#include "mdp/average_reward.hpp"
#include "mdp/model.hpp"

namespace bvc::mdp {

/// The Howard policy-iteration knob block.
struct PolicyIterationKnobs {
  int max_improvements = 1000;
  /// Keep the incumbent action unless a challenger beats it by this margin
  /// (guards against cycling on numerically tied actions).
  double improvement_tolerance = 1e-10;
  /// Practical size guard: dense evaluation is O(n^3).
  StateId max_states = 5000;
  /// Budget/cancellation; one guard tick per improvement round. On
  /// exhaustion the most recently evaluated policy is returned.
  robust::RunControl control;
};

struct PolicyIterationResult : SolveReport {
  double gain = 0.0;
  std::vector<double> bias;  ///< h with h[0] = 0
  Policy policy;

  /// Howard improvement rounds (the base report's iteration count).
  [[nodiscard]] int improvements() const noexcept { return iterations; }
};

/// Exact evaluation of one stationary policy: solves
///   g + h(s) = r(s, pi(s)) + sum_s' P(s' | s, pi(s)) h(s'),  h(0) = 0,
/// which has a unique solution for unichain policies (state 0 recurrent).
/// `sa_rewards` indexes rewards by Model::sa_index. As with the other
/// solvers, the CompiledModel overloads are the real implementation and the
/// Model overloads compile on entry (policy_iteration compiles ONCE for all
/// improvement rounds), bit-identically.
[[nodiscard]] PolicyIterationResult evaluate_policy_exact(
    const CompiledModel& model, const Policy& policy,
    std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options = {});
[[nodiscard]] PolicyIterationResult evaluate_policy_exact(
    const Model& model, const Policy& policy,
    std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options = {});

/// Maximizes the average of `sa_rewards` by Howard's policy iteration.
[[nodiscard]] PolicyIterationResult policy_iteration(
    const CompiledModel& model, std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options = {});
[[nodiscard]] PolicyIterationResult policy_iteration(
    const Model& model, std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options = {});

/// Convenience overloads on the model's primary reward stream.
[[nodiscard]] PolicyIterationResult policy_iteration(
    const CompiledModel& model, const PolicyIterationKnobs& options = {});
[[nodiscard]] PolicyIterationResult policy_iteration(
    const Model& model, const PolicyIterationKnobs& options = {});

}  // namespace bvc::mdp
