// SolveDiagnostics trajectory tests: the rho / residual trajectories the
// ratio solver records must be a faithful per-outer-iteration log — one
// entry per outer step, residuals (bracket widths) never widening — on both
// the Dinkelbach fast path and the bisection fallback. The observability
// layer (span args, docs/OBSERVABILITY.md) and the bench CSVs both read
// these fields, so their shape is a contract, not a debugging nicety.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mdp/compiled_model.hpp"
#include "mdp/model.hpp"
#include "mdp/ratio.hpp"
#include "obs/metrics.hpp"
#include "robust/run_control.hpp"

namespace {

using namespace bvc;
using mdp::CompiledModel;
using mdp::ModelBuilder;

/// Two-state alternator: reward rate (r0 + r1)/2, weight rate 1 per step,
/// so the optimal ratio equals the gain (r0 + r1)/2.
CompiledModel make_alternator(double r0, double r1) {
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0, r0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, r1, 1.0);
  return CompiledModel::compile(builder.build());
}

/// One state, two self-loops. Action 0 carries weight below the
/// min_weight_rate floor set by the test (a numerically degenerate
/// denominator); action 1 is an ordinary policy with ratio -1. With a
/// bracket starting below -1, Dinkelbach first certifies action 1, then
/// the degenerate action wins the linearized problem and forces the solver
/// into its bisection fallback.
CompiledModel make_thin_denominator() {
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 0.0, 0.1);
  builder.begin_action(0, 1);
  builder.add_outcome(0, 1.0, -1.0, 1.0);
  return CompiledModel::compile(builder.build());
}

void expect_trajectories_consistent(const robust::SolveDiagnostics& d) {
  ASSERT_GT(d.outer_iterations, 0);
  EXPECT_EQ(d.rho_trajectory.size(),
            static_cast<std::size_t>(d.outer_iterations));
  EXPECT_EQ(d.residual_trajectory.size(),
            static_cast<std::size_t>(d.outer_iterations));
  for (std::size_t i = 1; i < d.residual_trajectory.size(); ++i) {
    // The residual is the bracket width hi - lo: lo only rises and hi only
    // falls, so the recorded sequence must be non-increasing.
    EXPECT_LE(d.residual_trajectory[i], d.residual_trajectory[i - 1] + 1e-12)
        << "bracket widened at outer iteration " << i;
  }
  for (const double residual : d.residual_trajectory) {
    EXPECT_GE(residual, 0.0);
  }
}

TEST(SolveDiagnostics, TrajectoryLengthsMatchOuterIterationsWhenConverged) {
  const CompiledModel model = make_alternator(1.0, 3.0);  // ratio 2
  mdp::RatioKnobs config;
  config.upper_bound = 10.0;
  const mdp::RatioResult result = mdp::maximize_ratio(model, config);
  ASSERT_EQ(result.status, robust::RunStatus::kConverged);
  EXPECT_FALSE(result.used_bisection);
  EXPECT_NEAR(result.ratio, 2.0, 1e-5);
  expect_trajectories_consistent(result.diagnostics);
  // The final residual must witness the claimed convergence: either the
  // bracket closed below tolerance or the Dinkelbach fixed point was hit
  // (in which case the last recorded rho equals the reported ratio).
  EXPECT_NEAR(result.diagnostics.rho_trajectory.back(), result.ratio, 1e-5);
}

TEST(SolveDiagnostics, ResidualsMonotoneNonIncreasingUnderBisection) {
  const CompiledModel model = make_thin_denominator();
  mdp::RatioKnobs config;
  config.lower_bound = -5.0;
  config.upper_bound = 0.0;
  // Declare denominator rates below 0.2 numerically degenerate: action 0's
  // rate of 0.1 then triggers the Dinkelbach stall and the solver must
  // finish the bracket by bisection.
  config.min_weight_rate = 0.2;
  // Every RVI sweep the solve runs lands in the mdp.rvi.sweeps counter;
  // the diagnostics must account for all of them, including the paired
  // policy evaluations the bisection phase runs.
  obs::set_metrics_enabled(true);
  obs::Counter& sweep_counter =
      obs::MetricsRegistry::global().counter("mdp.rvi.sweeps");
  const std::uint64_t sweeps_before = sweep_counter.value();
  const mdp::RatioResult result = mdp::maximize_ratio(model, config);
  const std::uint64_t sweeps_run = sweep_counter.value() - sweeps_before;
  obs::set_metrics_enabled(false);
  ASSERT_TRUE(result.used_bisection)
      << "test model failed to force the bisection fallback (status "
      << robust::to_string(result.status) << ")";
  ASSERT_TRUE(robust::is_success(result.status) ||
              result.status == robust::RunStatus::kDegenerateModel)
      << robust::to_string(result.status);
  expect_trajectories_consistent(result.diagnostics);
  // Bisection halves the bracket every step, so beyond the Dinkelbach
  // prefix the trajectory must actually shrink, not merely not grow.
  const std::vector<double>& residuals = result.diagnostics.residual_trajectory;
  ASSERT_GE(residuals.size(), 4u);
  EXPECT_LT(residuals.back(), residuals.front());
  EXPECT_LE(residuals.back(), config.tolerance * (1.0 + 5.0));
  // The certified policy is the non-degenerate action found before the
  // stall; diagnostics must count the inner work both phases performed.
  EXPECT_GT(result.diagnostics.inner_solves, 2);
  EXPECT_GT(result.diagnostics.inner_sweeps, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(result.diagnostics.inner_sweeps),
            sweeps_run);
}

TEST(SolveDiagnostics, BracketClosedByBelowFloorPoliciesIsDegenerate) {
  // The model and knobs of ResidualsMonotoneNonIncreasingUnderBisection.
  // Past rho = -1 only the below-floor action 0 beats the linearized
  // problem, so bisection closes the bracket near action 0's ratio of 0,
  // which no admissible policy reaches. The result must not claim that
  // ratio: it is degenerate, and it reports the ratio of the policy it
  // returns, action 1's -1.
  const CompiledModel model = make_thin_denominator();
  mdp::RatioKnobs config;
  config.lower_bound = -5.0;
  config.upper_bound = 0.0;
  config.min_weight_rate = 0.2;
  const mdp::RatioResult result = mdp::maximize_ratio(model, config);
  ASSERT_TRUE(result.used_bisection);
  EXPECT_EQ(result.status, robust::RunStatus::kDegenerateModel)
      << robust::to_string(result.status) << ", ratio " << result.ratio;
  ASSERT_EQ(result.policy.action.size(), 1u);
  EXPECT_EQ(result.policy.action[0], 1u);
  EXPECT_NEAR(result.reward_rate, -1.0, 1e-6);
  EXPECT_NEAR(result.weight_rate, 1.0, 1e-6);
  EXPECT_EQ(result.ratio, result.reward_rate / result.weight_rate);
}

TEST(SolveDiagnostics, RetryPathAccumulatesAcrossAttempts) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  mdp::RatioKnobs config;
  config.upper_bound = 10.0;
  const mdp::RatioResult plain = mdp::maximize_ratio(model, config);
  const mdp::RatioResult retried =
      mdp::maximize_ratio_with_retry(model, config);
  // A first-try convergence must not fabricate retries, and the aggregated
  // diagnostics still describe exactly one attempt.
  EXPECT_EQ(retried.diagnostics.retries, 0);
  EXPECT_EQ(retried.diagnostics.outer_iterations,
            plain.diagnostics.outer_iterations);
  EXPECT_EQ(retried.diagnostics.inner_solves, plain.diagnostics.inner_solves);
}

}  // namespace
