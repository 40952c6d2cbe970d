#include "mdp/ratio.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

namespace {

// Escalation per retry of maximize_ratio_with_retry.
constexpr double kBracketWidenFactor = 2.0;
constexpr double kInnerToleranceFactor = 0.1;
constexpr double kIterationGrowthFactor = 2.0;

/// Re-fills `scratch` in place with the expected linearized reward
/// (num - rho * den) of every (state, action) pair, streaming the compiled
/// model's contiguous expectation columns — the only per-iteration work a
/// new rho costs; the model itself is never rebuilt.
void linearize(const CompiledModel& model, double rho,
               std::vector<double>& scratch) {
  scratch.resize(model.num_state_actions());
  const double* expected_reward = model.expected_reward();
  const double* expected_weight = model.expected_weight();
  for (SaIndex sa = 0; sa < scratch.size(); ++sa) {
    scratch[sa] = expected_reward[sa] - rho * expected_weight[sa];
  }
}

}  // namespace

RatioResult maximize_ratio(const CompiledModel& model,
                           const RatioKnobs& options) {
  BVC_REQUIRE(options.tolerance > 0.0, "ratio tolerance must be positive");
  BVC_REQUIRE(options.upper_bound > options.lower_bound,
              "ratio bracket must be non-empty");

  // Treat gains below this as "zero": the linearized problem is solved to
  // options.inner.tolerance, so anything of that order is noise.
  const double gain_tol = std::max(10.0 * options.inner.tolerance, 1e-8);

  obs::Span solve_span("ratio.solve", "solver");
  solve_span.arg("states", static_cast<std::int64_t>(model.num_states()));
  robust::RunGuard guard(options.control);
  RatioResult result;
  double lo = options.lower_bound;  // ratio known to be achievable (or floor)
  double hi = options.upper_bound;  // ratio known to be unachievable (ceiling)
  double rho = lo;
  std::vector<double> linearized;
  // Each linearized solve starts from the previous one's bias: successive
  // rho differ little, so the fixed points are close.
  std::vector<double> warm_bias;
  std::vector<double> eval_reward_bias;
  std::vector<double> eval_weight_bias;
  bool policy_recorded = false;
  bool degenerate_seen = false;
  // The ratio the recorded policy achieves (the bracket's floor until one
  // is recorded). `lo` can climb past it in bisection, where a winner below
  // min_weight_rate raises the bracket without a policy to show for it.
  double certified = lo;
  // The most recent inner policy: adopted as the best-effort answer when the
  // budget expires before any policy's true ratio could be certified.
  Policy last_inner_policy;

  const auto record_policy = [&](const Policy& policy, double num_rate,
                                 double den_rate) {
    result.policy = policy;
    result.reward_rate = num_rate;
    result.weight_rate = den_rate;
    certified = num_rate / den_rate;
    policy_recorded = true;
  };

  // Inner solves share the outer cancel token and the *remaining* wall
  // clock, so the whole ratio solve honors one deadline.
  const auto inner_options = [&] {
    AverageRewardKnobs inner = options.inner;
    inner.control.cancel = options.control.cancel;
    inner.control.budget = guard.remaining();
    return inner;
  };
  const auto note_inner = [&](const GainResult& run) {
    ++result.diagnostics.inner_solves;
    result.diagnostics.inner_sweeps += run.sweeps();
  };
  const auto note_outer = [&](double rho_now) {
    ++result.diagnostics.outer_iterations;
    result.diagnostics.rho_trajectory.push_back(rho_now);
    result.diagnostics.residual_trajectory.push_back(hi - lo);
    obs::trace_instant("ratio.outer", "solver", "rho", rho_now);
  };

  // Single exit point: fix up status, record timing, and make sure the
  // policy is usable (covers every state) even on early exits.
  const auto finalize = [&](robust::RunStatus status) -> RatioResult& {
    if (!policy_recorded && !last_inner_policy.action.empty()) {
      result.policy = last_inner_policy;
    }
    result.status = status;
    result.wall_clock_ns = guard.elapsed_ns();
    result.diagnostics.elapsed_seconds = guard.elapsed_seconds();
    // Span args mirror SolveDiagnostics so a trace alone explains the
    // outer/inner effort split without the result object in hand.
    solve_span.arg("outer_iterations",
                   static_cast<std::int64_t>(
                       result.diagnostics.outer_iterations));
    solve_span.arg("inner_solves",
                   static_cast<std::int64_t>(result.diagnostics.inner_solves));
    solve_span.arg("inner_sweeps", result.diagnostics.inner_sweeps);
    solve_span.arg("bisection",
                   static_cast<std::int64_t>(result.used_bisection ? 1 : 0));
    solve_span.arg("status", robust::to_string(status));
    if (obs::metrics_enabled()) {
      static obs::Counter& solves =
          obs::MetricsRegistry::global().counter("mdp.ratio.solves");
      static obs::Counter& outer = obs::MetricsRegistry::global().counter(
          "mdp.ratio.outer_iterations");
      static obs::Counter& bisections =
          obs::MetricsRegistry::global().counter("mdp.ratio.bisection_solves");
      solves.add();
      outer.add(static_cast<std::uint64_t>(
          std::max(0, result.diagnostics.outer_iterations)));
      if (result.used_bisection) {
        bisections.add();
      }
    }
    return result;
  };

  // Denominator-stream rewards, shared by all policy evaluations: a view
  // straight into the compiled expectation column.
  const std::span<const double> weight_rewards{model.expected_weight(),
                                               model.num_state_actions()};

  // --- Dinkelbach phase -------------------------------------------------
  for (; result.iterations < options.max_iterations; ++result.iterations) {
    if (const auto stop_status = guard.tick()) {
      return finalize(*stop_status);
    }
    linearize(model, rho, linearized);
    const GainResult run = maximize_average_reward(
        model, linearized, inner_options(),
        warm_bias.empty() ? nullptr : &warm_bias);
    warm_bias = run.bias;
    last_inner_policy = run.policy;
    note_inner(run);
    if (run.status == robust::RunStatus::kCancelled ||
        run.status == robust::RunStatus::kBudgetExhausted) {
      note_outer(rho);
      return finalize(run.status);
    }

    if (run.gain <= gain_tol) {
      // No policy beats ratio `rho` (within tolerance): rho is an upper
      // bound. If it already meets the achievable bound, we are done.
      hi = std::min(hi, rho);
      note_outer(rho);
      if (hi - lo <= options.tolerance) {
        result.ratio = lo;
        return finalize(policy_recorded || !degenerate_seen
                            ? robust::RunStatus::kConverged
                            : robust::RunStatus::kDegenerateModel);
      }
      break;  // degenerate/stalled: refine by bisection below
    }

    // One policy evaluation (the denominator stream) suffices: the
    // optimizer's gain is num_rate - rho * den_rate for its own policy, so
    // num_rate = gain + rho * den_rate.
    const GainResult weight_run = evaluate_policy_stream(
        model, run.policy, weight_rewards, inner_options(),
        eval_weight_bias.empty() ? nullptr : &eval_weight_bias);
    eval_weight_bias = weight_run.bias;
    note_inner(weight_run);
    if (weight_run.status == robust::RunStatus::kCancelled ||
        weight_run.status == robust::RunStatus::kBudgetExhausted) {
      note_outer(rho);
      return finalize(weight_run.status);
    }
    const double den_rate = weight_run.gain;
    const double num_rate = run.gain + rho * den_rate;
    if (den_rate <= options.min_weight_rate) {
      // Positive linearized gain but no denominator mass. With our models
      // the numerator then must be (numerically) zero too; treat as a stall
      // and let bisection decide.
      BVC_ENSURE(num_rate <= gain_tol,
                 "ratio objective is unbounded: positive numerator rate with "
                 "zero denominator rate");
      degenerate_seen = true;
      note_outer(rho);
      break;
    }

    const double achieved = num_rate / den_rate;
    if (achieved > lo) {
      lo = achieved;
      record_policy(run.policy, num_rate, den_rate);
    }
    note_outer(achieved);
    if (achieved <= rho + options.tolerance) {
      // Dinkelbach fixed point: g(rho) ~ 0 at rho = achieved ratio.
      result.ratio = lo;
      return finalize(robust::RunStatus::kConverged);
    }
    rho = achieved;
  }

  // --- Bisection fallback -------------------------------------------------
  result.used_bisection = true;
  while (hi - lo > options.tolerance &&
         result.iterations < options.max_iterations) {
    if (const auto stop_status = guard.tick()) {
      result.ratio = lo;
      return finalize(*stop_status);
    }
    ++result.iterations;
    const double mid = 0.5 * (lo + hi);
    linearize(model, mid, linearized);
    const GainResult run = maximize_average_reward(
        model, linearized, inner_options(),
        warm_bias.empty() ? nullptr : &warm_bias);
    warm_bias = run.bias;
    last_inner_policy = run.policy;
    note_inner(run);
    if (run.status == robust::RunStatus::kCancelled ||
        run.status == robust::RunStatus::kBudgetExhausted) {
      result.ratio = lo;
      note_outer(mid);
      return finalize(run.status);
    }
    if (run.gain > gain_tol) {
      // Some policy achieves a ratio above mid; try to extract it so the
      // reported policy matches the reported ratio.
      const PolicyGains gains =
          evaluate_policy_average(model, run.policy, inner_options(),
                                  &eval_reward_bias, &eval_weight_bias);
      result.diagnostics.inner_solves += 2;
      result.diagnostics.inner_sweeps += gains.sweeps;
      if (gains.weight_rate > options.min_weight_rate) {
        const double achieved = gains.reward_rate / gains.weight_rate;
        if (achieved > certified) {
          record_policy(run.policy, gains.reward_rate, gains.weight_rate);
        }
        lo = std::max(lo, std::max(mid, achieved));
      } else {
        // Only a below-floor policy beats mid: the bracket closes on its
        // ratio, which no admissible policy is known to reach.
        degenerate_seen = true;
        lo = mid;
      }
    } else {
      hi = mid;
    }
    note_outer(mid);
  }

  const double closed = options.tolerance * (1.0 + std::abs(lo));
  if (hi - lo <= closed) {
    // A closed bracket is the answer only if the recorded policy reaches
    // it. When below-floor winners closed it above every admissible
    // policy, the model is degenerate at this floor, and the result reports
    // the certified ratio: its recorded policy's, or the floor if none.
    if (!degenerate_seen || (policy_recorded && lo - certified <= closed)) {
      result.ratio = lo;
      return finalize(robust::RunStatus::kConverged);
    }
    result.ratio = certified;
    return finalize(robust::RunStatus::kDegenerateModel);
  }
  result.ratio = lo;
  return finalize(robust::RunStatus::kToleranceStalled);
}

RatioResult maximize_ratio_with_retry(const CompiledModel& model,
                                      const RatioKnobs& options) {
  robust::RunGuard guard(options.control);

  RatioKnobs attempt = options;
  RatioResult best = maximize_ratio(model, attempt);
  int inner_solves = best.diagnostics.inner_solves;
  std::int64_t inner_sweeps = best.diagnostics.inner_sweeps;
  int outer_iterations = best.diagnostics.outer_iterations;

  int retries = 0;
  while (best.status == robust::RunStatus::kToleranceStalled &&
         retries < kRatioRetries) {
    ++retries;
    // Escalate: wider bracket (in case upper_bound was not a genuine upper
    // bound), tighter inner solves (in case the bracket jittered on inner
    // noise), and more outer iterations. The achieved ratio so far is a
    // certified lower bound, so start the new bracket there.
    attempt.lower_bound = std::max(attempt.lower_bound, best.ratio);
    attempt.upper_bound =
        attempt.lower_bound + (attempt.upper_bound - attempt.lower_bound) *
                                  kBracketWidenFactor;
    attempt.inner.tolerance *= kInnerToleranceFactor;
    attempt.max_iterations = static_cast<int>(
        static_cast<double>(attempt.max_iterations) *
        kIterationGrowthFactor);
    attempt.control.budget = guard.remaining();

    RatioResult next = maximize_ratio(model, attempt);
    inner_solves += next.diagnostics.inner_solves;
    inner_sweeps += next.diagnostics.inner_sweeps;
    outer_iterations += next.diagnostics.outer_iterations;
    // Keep the better outcome: a converged solve always wins; otherwise the
    // higher certified ratio does.
    if (next.converged() || next.ratio >= best.ratio) {
      best = std::move(next);
    }
  }

  if (retries > 0 && obs::metrics_enabled()) {
    static obs::Counter& retry_counter =
        obs::MetricsRegistry::global().counter("mdp.ratio.retries");
    retry_counter.add(static_cast<std::uint64_t>(retries));
  }
  best.diagnostics.retries = retries;
  best.diagnostics.inner_solves = inner_solves;
  best.diagnostics.inner_sweeps = inner_sweeps;
  best.diagnostics.outer_iterations = outer_iterations;
  best.diagnostics.elapsed_seconds = guard.elapsed_seconds();
  best.wall_clock_ns = guard.elapsed_ns();
  return best;
}

}  // namespace bvc::mdp
