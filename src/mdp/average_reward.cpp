#include "mdp/average_reward.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "mdp/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

namespace {

/// One relative-value-iteration core shared by the optimizing and the
/// policy-evaluation entry points. When `policy` is non-null the maximization
/// over actions is restricted to the policy's action.
///
/// Every sweep runs on the kernel layer (mdp/kernel.hpp), on the ISA
/// kernel::resolve() returns, scalar included. Optimizing solves run
/// kernel::rvi_sweep over the full action menu (vectorized over states when
/// the menu is a uniform two or three actions, as on every paper table's
/// model; kernel::rvi_sweep_isa names the path). Policy evaluation first compacts the policy's rows into a
/// PolicyChain — one row per state, built once per solve — and runs
/// kernel::rvi_eval_sweep over it, vectorized for every model. The vector
/// bodies evaluate the scalar bodies' exact expression trees, so a solve's
/// result does not depend on the ISA.
GainResult rvi_core(const CompiledModel& model,
                    std::span<const double> sa_rewards, const Policy* policy,
                    const AverageRewardKnobs& options,
                    const std::vector<double>* warm_start_bias) {
  const StateId n = model.num_states();
  BVC_REQUIRE(sa_rewards.size() == model.num_state_actions(),
              "sa_rewards must cover every (state, action) pair");
  BVC_REQUIRE(options.tolerance > 0.0, "tolerance must be positive");
  BVC_REQUIRE(options.aperiodicity_tau > 0.0 &&
                  options.aperiodicity_tau <= 1.0,
              "aperiodicity tau must be in (0, 1]");
  if (policy != nullptr) {
    BVC_REQUIRE(policy->action.size() == n,
                "policy must assign an action to every state");
  }

  const double tau = options.aperiodicity_tau;
  // One span per RVI solve (not per sweep — a setting-2 solve runs tens of
  // thousands of sweeps and would flood the ring); the sweep count and
  // outcome land in the span args below and in the sweep counter.
  obs::Span solve_span("rvi.solve", "solver");
  solve_span.arg("states", static_cast<std::int64_t>(model.num_states()));
  solve_span.arg("mode", policy != nullptr ? "evaluate" : "optimize");
  robust::RunGuard guard(options.control);
  GainResult result;
  result.policy.action.assign(n, 0);

  // Jacobi relative value iteration (Bertsekas, Vol. II): every sweep backs
  // up each state against the previous sweep's bias, and subtracts the
  // Bellman residual of the reference state (state 0 — the base state,
  // recurrent under every policy in our models) from every update, which
  // keeps the bias bounded instead of growing by the gain each sweep.
  // Stopping uses the span seminorm of the per-state residuals, which
  // brackets the transformed gain.
  double gain_estimate = 0.0;

  // Adaptive damping: greedy-action switching can make the sweeps cycle
  // instead of contract on rare instances. When the span stops improving
  // we increase the damping (smaller effective tau), which breaks the
  // cycle at the cost of slower per-sweep progress; the fixed point is the
  // same for every tau.
  double tau_eff = tau;
  double best_span = std::numeric_limits<double>::infinity();
  int sweeps_since_improvement = 0;

  // Secondary stopping rule: the span criterion is sufficient but very
  // conservative on slowly-mixing chains (its decay rate is the chain's
  // mixing rate). The gain estimate — the midpoint of the residual bracket
  // — settles orders of magnitude sooner; once it has been stable to well
  // below the tolerance for many consecutive sweeps, accept it.
  double last_gain = std::numeric_limits<double>::infinity();
  int stable_gain_sweeps = 0;

  const kernel::Isa isa = kernel::resolve();
  // Policy evaluation sweeps the policy's compacted chain instead of the
  // model.
  std::optional<PolicyChain> chain;
  if (policy != nullptr) {
    chain.emplace(model, policy->action, sa_rewards);
  }
  // The sweep path that actually runs, for the span: the dispatcher's own
  // gate for the chain or the greedy sweep.
  const kernel::Isa swept_isa = chain ? kernel::rvi_sweep_isa(*chain, isa)
                                      : kernel::rvi_sweep_isa(model, isa);
  // A ping-pong bias pair, 64-byte aligned: each sweep reads `bias` and
  // writes `next_bias`, then the two swap.
  util::AlignedVector<double> bias(n, 0.0);
  if (warm_start_bias != nullptr && warm_start_bias->size() == n) {
    std::copy(warm_start_bias->begin(), warm_start_bias->end(), bias.begin());
  }
  util::AlignedVector<double> next_bias(n, 0.0);
  // One sweep of states [begin, end) against `bias` into `out`: the chain
  // sweep for a fixed policy, the greedy sweep otherwise.
  const auto sweep_states = [&](StateId begin, StateId end, double reference,
                                double* out, double* lo, double* hi) {
    if (chain) {
      kernel::rvi_eval_sweep(*chain, tau_eff, bias.data(), reference, begin,
                             end, out, lo, hi, isa);
    } else {
      kernel::rvi_sweep(model, sa_rewards.data(), tau_eff, bias.data(),
                        reference, begin, end, out,
                        result.policy.action.data(), lo, hi, isa);
    }
  };

  int sweep = 0;
  for (; sweep < options.max_sweeps; ++sweep) {
    // Budget/cancellation check before the sweep: a pre-cancelled token
    // stops the solve before any full sweep has run.
    if (const auto stop_status = guard.tick()) {
      result.status = *stop_status;
      break;
    }
    const double stop = options.tolerance * tau_eff;
    double span_min = std::numeric_limits<double>::infinity();
    double span_max = -std::numeric_limits<double>::infinity();

    // The reference residual comes from state 0's backup up front:
    // sweeping [0, 1) against reference 0 returns that backup unchanged
    // (x - 0.0 == x), and the full sweep recomputes it with identical bits.
    double backup0 = 0.0;
    double unused_min = std::numeric_limits<double>::infinity();
    double unused_max = -std::numeric_limits<double>::infinity();
    sweep_states(0, 1, 0.0, &backup0, &unused_min, &unused_max);
    sweep_states(0, n, backup0 - bias[0], next_bias.data(), &span_min,
                 &span_max);
    bias.swap(next_bias);

    gain_estimate = 0.5 * (span_min + span_max) / tau_eff;

    const double span = span_max - span_min;
    if (span < stop) {
      result.status = robust::RunStatus::kConverged;
      ++sweep;
      break;
    }
    if (++stable_gain_sweeps >= 400) {
      // Compare against the estimate 400 sweeps ago: cumulative drift below
      // a tenth of the tolerance means the estimate has converged even if
      // the (conservative) span has not.
      if (std::abs(gain_estimate - last_gain) <
          0.1 * options.tolerance * (1.0 + std::abs(gain_estimate))) {
        result.status = robust::RunStatus::kConverged;
        ++sweep;
        break;
      }
      last_gain = gain_estimate;
      stable_gain_sweeps = 0;
    }
    // Cycling shows up as the span never reaching a new minimum (it
    // oscillates between a fixed set of values); slow-but-monotone
    // convergence sets a new best almost every sweep and must NOT trigger
    // damping, or large models would be slowed down spuriously.
    if (span < best_span) {
      best_span = span;
      sweeps_since_improvement = 0;
    } else if (++sweeps_since_improvement >= 200 && tau_eff > 0.05) {
      tau_eff *= 0.7;
      sweeps_since_improvement = 0;
    }
  }

  result.bias.assign(bias.begin(), bias.end());
  if (chain && sweep > 0) {
    // The chain sweep has no argmax to report; echo the evaluated policy
    // once a sweep has run.
    result.policy = *policy;
  }
  result.gain = gain_estimate;
  result.iterations = sweep;
  result.wall_clock_ns = guard.elapsed_ns();
  solve_span.arg("kernel", kernel::to_string(swept_isa));
  solve_span.arg("sweeps", static_cast<std::int64_t>(sweep));
  solve_span.arg("status", robust::to_string(result.status));
  if (obs::metrics_enabled()) {
    static obs::Counter& solves =
        obs::MetricsRegistry::global().counter("mdp.rvi.solves");
    static obs::Counter& sweeps =
        obs::MetricsRegistry::global().counter("mdp.rvi.sweeps");
    solves.add();
    sweeps.add(static_cast<std::uint64_t>(std::max(0, sweep)));
  }
  return result;
}

}  // namespace

GainResult maximize_average_reward(const CompiledModel& model,
                                   std::span<const double> sa_rewards,
                                   const AverageRewardKnobs& options,
                                   const std::vector<double>* warm_start_bias) {
  return rvi_core(model, sa_rewards, nullptr, options, warm_start_bias);
}

GainResult maximize_average_reward(const CompiledModel& model,
                                   const AverageRewardKnobs& options) {
  const std::span<const double> rewards{model.expected_reward(),
                                        model.num_state_actions()};
  return rvi_core(model, rewards, nullptr, options, nullptr);
}

GainResult evaluate_policy_stream(const CompiledModel& model,
                                  const Policy& policy,
                                  std::span<const double> sa_rewards,
                                  const AverageRewardKnobs& options,
                                  const std::vector<double>* warm_start_bias) {
  return rvi_core(model, sa_rewards, &policy, options, warm_start_bias);
}

PolicyGains evaluate_policy_average(const CompiledModel& model,
                                    const Policy& policy,
                                    const AverageRewardKnobs& options,
                                    std::vector<double>* reward_bias,
                                    std::vector<double>* weight_bias) {
  const std::size_t actions = model.num_state_actions();
  const std::span<const double> rewards{model.expected_reward(), actions};
  const std::span<const double> weights{model.expected_weight(), actions};
  GainResult reward_run =
      rvi_core(model, rewards, &policy, options, reward_bias);
  GainResult weight_run =
      rvi_core(model, weights, &policy, options, weight_bias);
  PolicyGains gains;
  gains.reward_rate = reward_run.gain;
  gains.weight_rate = weight_run.gain;
  gains.status = std::max(reward_run.status, weight_run.status);
  gains.sweeps = reward_run.sweeps() + weight_run.sweeps();
  if (reward_bias != nullptr) {
    *reward_bias = std::move(reward_run.bias);
  }
  if (weight_bias != nullptr) {
    *weight_bias = std::move(weight_run.bias);
  }
  return gains;
}

}  // namespace bvc::mdp
