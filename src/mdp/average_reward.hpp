// Average-reward (gain-optimal) MDP solving via relative value iteration.
//
// The models produced by the attack generators are unichain: the base state
// is reachable under every stationary policy because any fork resolves with
// probability one. For unichain MDPs relative value iteration converges to
// the optimal gain g* and a bias vector h*; we additionally apply Puterman's
// aperiodicity transformation (Sect. 8.5.4 of "Markov Decision Processes")
// so convergence does not depend on the chain being aperiodic.
//
// There is one sweep discipline: a Jacobi sweep with reference
// subtraction, run by the kernel layer (mdp/kernel.hpp) on whatever ISA it
// dispatches to. Every ISA computes the same bits, so results do not
// depend on the host.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mdp/compiled_model.hpp"
#include "mdp/solve_report.hpp"
#include "robust/run_control.hpp"

namespace bvc::mdp {

/// A deterministic stationary policy: for each state, the *local* index of
/// the chosen action (CompiledModel::action_label of its sa_index gives the
/// external label).
struct Policy {
  std::vector<std::uint32_t> action;

  [[nodiscard]] bool operator==(const Policy&) const = default;
};

/// The relative-value-iteration knob block. The ratio solver nests one as
/// RatioKnobs::inner.
struct AverageRewardKnobs {
  /// Stopping threshold on the span seminorm of successive value differences;
  /// bounds the gain error by the same amount.
  double tolerance = 1e-8;
  /// Hard cap on sweeps: bounds a single solve even on pathological
  /// near-tie instances; at 30k sweeps the gain midpoint is accurate to
  /// ~1e-6 on the largest models in this library.
  int max_sweeps = 30000;
  /// Aperiodicity damping tau in (0, 1]: each step keeps the state with
  /// probability (1 - tau). 1.0 disables the transformation; the default
  /// keeps a sliver of self-loop as insurance at ~0.1% cost.
  double aperiodicity_tau = 0.999;
  /// Wall-clock/iteration budget and cooperative cancellation. One guard
  /// tick is one sweep; on exhaustion the solver returns its best bias and
  /// greedy policy so far with status kBudgetExhausted / kCancelled.
  robust::RunControl control;
};

struct GainResult : SolveReport {
  double gain = 0.0;           ///< optimal (or policy) long-run reward rate
  std::vector<double> bias;    ///< relative value vector (bias up to constant)
  Policy policy;               ///< greedy policy at convergence

  /// RVI sweeps performed (the base report's iteration count).
  [[nodiscard]] int sweeps() const noexcept { return iterations; }
};

/// Maximizes the long-run average of the per-(state,action) rewards
/// `sa_rewards` (indexed by CompiledModel::sa_index). `warm_start_bias`, when
/// provided and correctly sized, seeds the value vector — this makes families
/// of solves (e.g. Dinkelbach iterations) much cheaper.
///
/// The solvers sweep the model's SoA columns, whether ModelBuilder built it
/// or a cached mdp::ModelTemplate instantiated it.
[[nodiscard]] GainResult maximize_average_reward(
    const CompiledModel& model, std::span<const double> sa_rewards,
    const AverageRewardKnobs& options = {},
    const std::vector<double>* warm_start_bias = nullptr);

/// Convenience overload using the model's primary reward stream.
[[nodiscard]] GainResult maximize_average_reward(
    const CompiledModel& model, const AverageRewardKnobs& options = {});

/// Long-run rates of both reward streams under a fixed policy.
struct PolicyGains {
  double reward_rate = 0.0;  ///< numerator stream per step
  double weight_rate = 0.0;  ///< denominator stream per step
  /// Worst status of the two stream evaluations.
  robust::RunStatus status = robust::RunStatus::kToleranceStalled;
  /// RVI sweeps the two stream evaluations ran together.
  std::int64_t sweeps = 0;

  [[nodiscard]] bool converged() const noexcept {
    return robust::is_success(status);
  }
};

/// Evaluates a fixed deterministic policy against an arbitrary per-(state,
/// action) reward vector. Used by the ratio solver, which needs only the
/// denominator stream's rate (the numerator follows from the gain identity
/// num_rate = linearized_gain + rho * den_rate).
[[nodiscard]] GainResult evaluate_policy_stream(
    const CompiledModel& model, const Policy& policy,
    std::span<const double> sa_rewards,
    const AverageRewardKnobs& options = {},
    const std::vector<double>* warm_start_bias = nullptr);

/// Evaluates a fixed deterministic policy (both streams simultaneously).
/// `reward_bias`/`weight_bias`, when non-null, are used as warm starts and
/// overwritten with the converged bias vectors — this makes repeated
/// evaluations of slowly-changing policies (Dinkelbach iterations) cheap.
[[nodiscard]] PolicyGains evaluate_policy_average(
    const CompiledModel& model, const Policy& policy,
    const AverageRewardKnobs& options = {},
    std::vector<double>* reward_bias = nullptr,
    std::vector<double>* weight_bias = nullptr);

}  // namespace bvc::mdp
