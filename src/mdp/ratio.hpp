// Maximization of ratio objectives  max_pi  num_rate(pi) / den_rate(pi)
// over stationary policies of a unichain MDP, where num/den are the model's
// two reward streams. This is the form of all three utility functions in the
// paper (Eq. 1–3); the same construction underlies Sapirshtein et al.'s
// optimal-selfish-mining solver.
//
// Method: Dinkelbach's algorithm — repeatedly maximize the average reward of
// the linearized stream (num - rho * den) and update rho to the achieved
// ratio — with a bisection fallback for the degenerate case where a policy
// with zero denominator rate (e.g. "wait forever") is optimal at the current
// rho. Both converge because  g(rho) = max_pi (num_rate - rho * den_rate)
// is convex, non-increasing, and g(rho*) = 0 at the optimal ratio rho*.
#pragma once

#include "mdp/average_reward.hpp"
#include "mdp/compiled_model.hpp"
#include "robust/run_control.hpp"

namespace bvc::mdp {

/// The ratio-solver knob block: the outer Dinkelbach/bisection loop plus
/// the nested inner-RVI knobs.
struct RatioKnobs {
  /// Knobs of every inner average-reward solve. Its `control` is ignored:
  /// maximize_ratio stamps each inner solve with `control`'s cancel token
  /// and the wall clock remaining on the outer guard.
  AverageRewardKnobs inner;
  /// Convergence tolerance on the ratio value.
  double tolerance = 1e-6;
  int max_iterations = 200;
  /// Bracket for the optimal ratio; `upper_bound` must be a genuine upper
  /// bound for the bisection fallback to be sound.
  double lower_bound = 0.0;
  double upper_bound = 1.0;
  /// A policy whose denominator rate falls below this is considered
  /// degenerate (accrues no denominator mass).
  double min_weight_rate = 1e-9;
  /// Budget/cancellation for the whole ratio solve. One guard tick is one
  /// outer (Dinkelbach or bisection) iteration; the remaining wall-clock
  /// allowance is forwarded to every inner average-reward solve, so the
  /// deadline binds the total work, not each piece separately. On
  /// exhaustion the best policy found so far is returned.
  robust::RunControl control;
};

/// `iterations` (on the base report) counts linearized solves performed;
/// converged() replaces the old redundant `converged` field.
struct RatioResult : SolveReport {
  double ratio = 0.0;     ///< best achieved num/den rate
  Policy policy;          ///< a policy achieving `ratio` (up to tolerance)
  double reward_rate = 0.0;  ///< numerator rate of `policy`
  double weight_rate = 0.0;  ///< denominator rate of `policy`
  bool used_bisection = false;
};

/// Every Dinkelbach / bisection iteration re-linearizes the reward stream
/// in place on the compiled expected-value arrays and sweeps the SoA
/// kernel, so nothing is rebuilt between iterations.
[[nodiscard]] RatioResult maximize_ratio(const CompiledModel& model,
                                         const RatioKnobs& options);

/// Attempts maximize_ratio_with_retry makes after the first solve.
inline constexpr int kRatioRetries = 2;

/// maximize_ratio with bounded retry-with-escalation. A ratio solve can
/// stall for two curable reasons: the bracket's upper bound was not a
/// genuine upper bound (the Dinkelbach iterates escape it), or the inner
/// solves were too loose for the outer tolerance (the bracket jitters
/// instead of contracting). So a solve that ends kToleranceStalled is
/// re-attempted, up to kRatioRetries times, from its certified ratio with
/// the bracket's width doubled, the inner tolerance divided by 10 and the
/// outer iteration cap doubled. Budget exhaustion, cancellation and
/// degeneracy are not retried: more effort cannot cure those. The
/// wall-clock budget in `options.control` spans all attempts combined.
[[nodiscard]] RatioResult maximize_ratio_with_retry(
    const CompiledModel& model, const RatioKnobs& options);

}  // namespace bvc::mdp
