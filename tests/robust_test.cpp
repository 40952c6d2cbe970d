// Tests of the run-control subsystem: RunStatus / RunBudget / CancelToken /
// RunGuard primitives, and the budget/cancellation behaviour threaded
// through every iterative component (the four MDP solvers, the model
// rollout, and both simulators).
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bu/attack_analysis.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/policy_iteration.hpp"
#include "mdp/ratio.hpp"
#include "mdp/rollout.hpp"
#include "sim/fork_simulation.hpp"
#include "sim/network_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using mdp::CompiledModel;
using mdp::ModelBuilder;
using robust::CancelToken;
using robust::RunBudget;
using robust::RunControl;
using robust::RunGuard;
using robust::RunStatus;

// ----------------------------------------------------------- primitives ---

TEST(RunStatus, NamesAreDistinctAndStable) {
  const RunStatus all[] = {
      RunStatus::kConverged, RunStatus::kToleranceStalled,
      RunStatus::kBudgetExhausted, RunStatus::kCancelled,
      RunStatus::kDegenerateModel};
  std::set<std::string> names;
  for (const RunStatus status : all) {
    names.insert(std::string(robust::to_string(status)));
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(robust::to_string(RunStatus::kConverged), "converged");
  EXPECT_EQ(robust::to_string(RunStatus::kBudgetExhausted),
            "budget-exhausted");
}

TEST(RunStatus, SuccessAndPartialClassification) {
  EXPECT_TRUE(robust::is_success(RunStatus::kConverged));
  EXPECT_FALSE(robust::is_success(RunStatus::kBudgetExhausted));
  EXPECT_TRUE(robust::is_partial(RunStatus::kToleranceStalled));
  EXPECT_TRUE(robust::is_partial(RunStatus::kBudgetExhausted));
  EXPECT_FALSE(robust::is_partial(RunStatus::kConverged));
  EXPECT_FALSE(robust::is_partial(RunStatus::kCancelled));
  EXPECT_FALSE(robust::is_partial(RunStatus::kDegenerateModel));
}

TEST(RunBudget, FactoriesAndUnlimited) {
  EXPECT_TRUE(RunBudget{}.unlimited());
  EXPECT_FALSE(RunBudget::deadline(1.0).unlimited());
  EXPECT_FALSE(RunBudget::ticks(5).unlimited());
  EXPECT_DOUBLE_EQ(RunBudget::deadline(2.5).wall_clock_seconds, 2.5);
  EXPECT_EQ(RunBudget::ticks(7).max_ticks, 7);
}

TEST(CancelToken, DefaultTokenIsInert) {
  const CancelToken token;
  EXPECT_FALSE(token.cancel_requested());
  token.request_cancel();  // no-op, must not crash
  EXPECT_FALSE(token.cancel_requested());
  EXPECT_TRUE(RunControl{}.inert());
}

TEST(CancelToken, CancellationIsSharedAcrossCopies) {
  const CancelToken token = CancelToken::make();
  const CancelToken copy = token;
  EXPECT_FALSE(copy.cancel_requested());
  token.request_cancel();
  EXPECT_TRUE(copy.cancel_requested());
  RunControl control;
  control.cancel = copy;
  EXPECT_FALSE(control.inert());
}

TEST(RunGuard, UnlimitedBudgetNeverStops) {
  RunGuard guard(RunControl{});
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(guard.tick().has_value());
  }
  EXPECT_EQ(guard.ticks(), 10000);
  EXPECT_GE(guard.elapsed_seconds(), 0.0);
  EXPECT_TRUE(guard.remaining().unlimited());
}

TEST(RunGuard, EnforcesTickCap) {
  RunControl control;
  control.budget = RunBudget::ticks(3);
  RunGuard guard(control);
  EXPECT_FALSE(guard.tick().has_value());
  EXPECT_FALSE(guard.tick().has_value());
  EXPECT_FALSE(guard.tick().has_value());
  ASSERT_TRUE(guard.tick().has_value());
  EXPECT_EQ(*guard.tick(), RunStatus::kBudgetExhausted);  // and stays stopped
  EXPECT_EQ(guard.ticks(), 3);
}

TEST(RunGuard, PreCancelledTokenStopsOnFirstTick) {
  RunControl control;
  control.cancel = CancelToken::make();
  control.cancel.request_cancel();
  RunGuard guard(control);
  ASSERT_TRUE(guard.tick().has_value());
  EXPECT_EQ(*guard.tick(), RunStatus::kCancelled);
  EXPECT_EQ(guard.ticks(), 0);
}

TEST(RunGuard, CancellationBeatsBudgetExhaustion) {
  RunControl control;
  control.budget = RunBudget::ticks(0);
  control.cancel = CancelToken::make();
  control.cancel.request_cancel();
  RunGuard guard(control);
  EXPECT_EQ(*guard.tick(), RunStatus::kCancelled);
}

TEST(RunGuard, ZeroDeadlineExpiresImmediately) {
  RunControl control;
  control.budget = RunBudget::deadline(0.0);
  RunGuard guard(control);
  EXPECT_EQ(*guard.tick(), RunStatus::kBudgetExhausted);
  EXPECT_DOUBLE_EQ(guard.remaining().wall_clock_seconds, 0.0);
}

TEST(RunGuard, RemainingShrinksFromTheDeadline) {
  RunControl control;
  control.budget = RunBudget::deadline(100.0);
  RunGuard guard(control);
  const RunBudget rest = guard.remaining();
  EXPECT_LE(rest.wall_clock_seconds, 100.0);
  EXPECT_GT(rest.wall_clock_seconds, 0.0);
  // remaining() must not propagate the tick cap to nested solves.
  EXPECT_EQ(rest.max_ticks, RunBudget{}.max_ticks);
}

TEST(RunGuard, ClockStrideStillCountsTicks) {
  RunControl control;
  control.budget = RunBudget::ticks(10);
  RunGuard guard(control, /*clock_stride=*/1024);
  int allowed = 0;
  while (!guard.tick().has_value()) {
    ++allowed;
  }
  EXPECT_EQ(allowed, 10);  // the tick cap must not be amortized away
}

TEST(RunGuard, ClockStrideActuallySkipsClockReads) {
  // With stride 4 the deadline is only consulted when ticks_ % 4 == 0,
  // i.e. on the 1st call (ticks_ = 0) and the 5th (ticks_ = 4). Sleeping
  // past the deadline after the 1st call must therefore go unnoticed for
  // exactly three more ticks — if any of them stopped, the stride would be
  // reading the clock it promised to skip.
  RunControl control;
  control.budget = RunBudget::deadline(0.05);
  RunGuard guard(control, /*clock_stride=*/4);
  ASSERT_FALSE(guard.tick().has_value());  // ticks_ = 0: clock read, fresh
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(guard.tick().has_value());  // ticks_ = 1: skipped
  EXPECT_FALSE(guard.tick().has_value());  // ticks_ = 2: skipped
  EXPECT_FALSE(guard.tick().has_value());  // ticks_ = 3: skipped
  const auto stopped = guard.tick();       // ticks_ = 4: clock read again
  ASSERT_TRUE(stopped.has_value());
  EXPECT_EQ(*stopped, RunStatus::kBudgetExhausted);
  // Once expired, the guard keeps reporting exhaustion without strides.
  EXPECT_EQ(guard.tick(), std::optional<RunStatus>(
                              RunStatus::kBudgetExhausted));
}

TEST(RunGuard, ElapsedNanosecondsAndSecondsAgree) {
  RunGuard guard(RunControl{});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const double before = guard.elapsed_seconds();
  const std::int64_t ns = guard.elapsed_ns();
  const double after = guard.elapsed_seconds();
  // Both views read the same steady clock, so the ns reading taken between
  // the two seconds readings must land between them (modulo 1ns rounding).
  EXPECT_GE(static_cast<double>(ns) * 1e-9, before - 1e-6);
  EXPECT_LE(static_cast<double>(ns) * 1e-9, after + 1e-6);
  EXPECT_GE(before, 0.009);  // sleep_for guarantees at least the request
  EXPECT_GE(ns, 9'000'000);
}

TEST(RunGuard, RemainingNeverGoesNegative) {
  RunControl control;
  control.budget = RunBudget::deadline(0.001);
  RunGuard guard(control);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const RunBudget rest = guard.remaining();
  // Past the deadline the remaining allowance clamps at zero; a negative
  // allowance handed to a nested solve would be interpreted as "no
  // deadline was configured at all" by downstream arithmetic.
  EXPECT_GE(rest.wall_clock_seconds, 0.0);
  EXPECT_EQ(rest.wall_clock_seconds, 0.0);
}

// ---------------------------------------------------------- MDP solvers ---

/// Two-state alternator: num stream rates (r0 + r1)/2, den stream 1/step.
CompiledModel make_alternator(double r0, double r1) {
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0, r0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, r1, 1.0);
  return builder.build();
}

RunControl cancelled_control() {
  RunControl control;
  control.cancel = CancelToken::make();
  control.cancel.request_cancel();
  return control;
}

TEST(AverageRewardControl, PreCancelledReturnsWithoutASweep) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  mdp::AverageRewardKnobs config;
  config.control = cancelled_control();
  const mdp::GainResult result = mdp::maximize_average_reward(model, config);
  EXPECT_EQ(result.status, RunStatus::kCancelled);
  EXPECT_FALSE(result.converged());
  EXPECT_EQ(result.sweeps(), 0);
}

TEST(AverageRewardControl, TickBudgetCapsSweeps) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  mdp::AverageRewardKnobs config;
  config.tolerance = 1e-300;  // unreachable: only the budget can stop it
  config.control.budget = RunBudget::ticks(3);
  const mdp::GainResult result = mdp::maximize_average_reward(model, config);
  EXPECT_EQ(result.status, RunStatus::kBudgetExhausted);
  EXPECT_FALSE(result.converged());
  EXPECT_LE(result.sweeps(), 3);
  // The partial result is still usable: a policy for every state.
  EXPECT_EQ(result.policy.action.size(), model.num_states());
  EXPECT_GE(result.elapsed_seconds(), 0.0);
}

TEST(AverageRewardControl, UnlimitedControlStillConverges) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  const mdp::GainResult result = mdp::maximize_average_reward(model);
  EXPECT_EQ(result.status, RunStatus::kConverged);
  EXPECT_TRUE(result.converged());
  EXPECT_NEAR(result.gain, 2.0, 1e-6);
}

/// Exact average-reward policy iteration (a unit denominator).
mdp::PolicyIterationResult exact_gain(const CompiledModel& model,
                                      const RunControl& control = {}) {
  const std::vector<double> unit(model.num_state_actions(), 1.0);
  return mdp::policy_iteration(
      model, {model.expected_reward(), model.num_state_actions()}, unit,
      control);
}

TEST(PolicyIterationControl, PreCancelledReturnsTotalPolicy) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  const mdp::PolicyIterationResult result =
      exact_gain(model, cancelled_control());
  EXPECT_EQ(result.status, RunStatus::kCancelled);
  EXPECT_EQ(result.improvements(), 0);
  // Even without a single evaluation the returned policy covers all states.
  EXPECT_EQ(result.policy.action.size(), model.num_states());
}

TEST(PolicyIterationControl, TickBudgetReturnsTheLastEvaluatedPolicy) {
  // State 0's first action stays put for nothing; its second starts a
  // two-step cycle worth 3. One tick evaluates only the first policy.
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 0.0, 1.0);
  builder.begin_action(0, 1);
  builder.add_outcome(1, 1.0, 1.0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, 2.0, 1.0);
  const CompiledModel model = builder.build();
  RunControl control;
  control.budget = RunBudget::ticks(1);
  const mdp::PolicyIterationResult partial = exact_gain(model, control);
  EXPECT_EQ(partial.status, RunStatus::kBudgetExhausted);
  EXPECT_EQ(partial.policy.action[0], 0u);
  EXPECT_EQ(partial.value, 0.0);
  EXPECT_EQ(exact_gain(model).value, 1.5);
}

TEST(PolicyIterationControl, UnlimitedControlStillConverges) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  const mdp::PolicyIterationResult result = exact_gain(model);
  EXPECT_EQ(result.status, RunStatus::kConverged);
  EXPECT_NEAR(result.value, 2.0, 1e-9);
}

// --------------------------------------------------------- ratio solver ---

TEST(RatioControl, ConvergedSolveCarriesDiagnostics) {
  const CompiledModel model = make_alternator(1.0, 3.0);  // ratio = gain = 2
  mdp::RatioKnobs config;
  config.upper_bound = 10.0;
  const mdp::RatioResult result = mdp::maximize_ratio(model, config);
  EXPECT_EQ(result.status, RunStatus::kConverged);
  EXPECT_TRUE(result.converged());
  EXPECT_NEAR(result.ratio, 2.0, 1e-5);
  EXPECT_GT(result.diagnostics.outer_iterations, 0);
  EXPECT_GT(result.diagnostics.inner_solves, 0);
  EXPECT_GT(result.diagnostics.inner_sweeps, 0);
  EXPECT_EQ(result.diagnostics.rho_trajectory.size(),
            static_cast<std::size_t>(result.diagnostics.outer_iterations));
  EXPECT_EQ(result.diagnostics.residual_trajectory.size(),
            result.diagnostics.rho_trajectory.size());
  EXPECT_GE(result.diagnostics.elapsed_seconds, 0.0);
  EXPECT_EQ(result.diagnostics.retries, 0);
}

TEST(RatioControl, PreCancelledReturnsCancelled) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  mdp::RatioKnobs config;
  config.upper_bound = 10.0;
  config.control = cancelled_control();
  const mdp::RatioResult result = mdp::maximize_ratio(model, config);
  EXPECT_EQ(result.status, RunStatus::kCancelled);
  EXPECT_FALSE(result.converged());
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.diagnostics.inner_solves, 0);  // not even one inner solve
}

TEST(RatioControl, OuterGuardOwnsTheBudget) {
  // The outer guard owns the budget: one tick is one outer iteration, and
  // each inner solve gets only the outer cancel token and the wall clock
  // remaining, never a copy of the tick cap.
  const CompiledModel model = make_alternator(1.0, 3.0);  // ratio = gain = 2
  mdp::RatioKnobs config;
  config.upper_bound = 10.0;
  config.control.budget = RunBudget::ticks(1);
  const mdp::RatioResult capped = mdp::maximize_ratio(model, config);
  EXPECT_EQ(capped.status, RunStatus::kBudgetExhausted);
  EXPECT_EQ(capped.diagnostics.outer_iterations, 1);
  // The one permitted iteration ran its optimize and evaluate solves to
  // convergence: a one-tick inner cap would have stopped the first after
  // one sweep and ended the solve there.
  EXPECT_EQ(capped.diagnostics.inner_solves, 2);
  EXPECT_GT(capped.diagnostics.inner_sweeps, 2);
  EXPECT_NEAR(capped.reward_rate / capped.weight_rate, 2.0, 1e-6);

  // A budget on the inner knobs is replaced by the outer one, so it cannot
  // stop an inner solve either.
  mdp::RatioKnobs inner_capped;
  inner_capped.upper_bound = 10.0;
  inner_capped.inner.control.budget = RunBudget::ticks(1);
  const mdp::RatioResult result = mdp::maximize_ratio(model, inner_capped);
  EXPECT_EQ(result.status, RunStatus::kConverged);
  EXPECT_NEAR(result.ratio, 2.0, 1e-5);
}

TEST(RatioControl, DeadlineStarvedSolveReturnsUsablePartialPolicy) {
  // The acceptance scenario: a real (setting-2, ~10k states) model, a
  // tolerance far below what 100 ms of work can reach, and a 100 ms
  // deadline. The solve must come back quickly, flagged kBudgetExhausted,
  // with a best-effort policy covering every state.
  bu::AttackParams params;
  params.alpha = 0.20;
  params.beta = 0.32;
  params.gamma = 0.48;
  params.setting = bu::Setting::kStickyGate;
  const bu::AttackModel attack =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);

  mdp::RatioKnobs config;
  config.tolerance = 1e-14;
  config.inner.tolerance = 1e-14;
  config.control.budget = RunBudget::deadline(0.1);
  const mdp::RatioResult result =
      mdp::maximize_ratio(*attack.compiled, config);
  EXPECT_EQ(result.status, RunStatus::kBudgetExhausted);
  EXPECT_FALSE(result.converged());
  EXPECT_EQ(result.policy.action.size(), attack.compiled->num_states());
  // The deadline binds the nested solves too, not just the outer loop: the
  // whole thing must end well before an unbudgeted solve would (seconds).
  EXPECT_LT(result.diagnostics.elapsed_seconds, 2.0);
}

TEST(RatioControl, RetryEscalatesAStalledSolve) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  mdp::RatioKnobs config;
  config.upper_bound = 10.0;
  config.max_iterations = 1;  // guaranteed to stall on the first attempt
  {
    const mdp::RatioResult single = mdp::maximize_ratio(model, config);
    ASSERT_EQ(single.status, RunStatus::kToleranceStalled);
  }
  const mdp::RatioResult result =
      mdp::maximize_ratio_with_retry(model, config);
  EXPECT_GE(result.diagnostics.retries, 1);
  EXPECT_EQ(result.status, RunStatus::kConverged);
  EXPECT_NEAR(result.ratio, 2.0, 1e-5);
}

TEST(RatioControl, RetryRespectsTheRetryCap) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  mdp::RatioKnobs config;
  config.upper_bound = 10.0;
  config.max_iterations = 0;  // every attempt, escalated or not, stalls
  const mdp::RatioResult result =
      mdp::maximize_ratio_with_retry(model, config);
  EXPECT_EQ(result.status, RunStatus::kToleranceStalled);
  EXPECT_EQ(result.diagnostics.retries, mdp::kRatioRetries);
}

TEST(RatioControl, RetryDoesNotRetryExhaustedBudgets) {
  bu::AttackParams params;
  params.alpha = 0.20;
  params.beta = 0.32;
  params.gamma = 0.48;
  params.setting = bu::Setting::kStickyGate;
  const bu::AttackModel attack =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  mdp::RatioKnobs config;
  config.tolerance = 1e-14;
  config.inner.tolerance = 1e-14;
  config.control.budget = RunBudget::deadline(0.05);
  const mdp::RatioResult result =
      mdp::maximize_ratio_with_retry(*attack.compiled, config);
  EXPECT_EQ(result.status, RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.diagnostics.retries, 0);
}

TEST(RatioControl, RetryDoesNotRetryCancellation) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  mdp::RatioKnobs config;
  config.upper_bound = 10.0;
  config.control = cancelled_control();
  const mdp::RatioResult result =
      mdp::maximize_ratio_with_retry(model, config);
  EXPECT_EQ(result.status, RunStatus::kCancelled);
  EXPECT_EQ(result.diagnostics.retries, 0);
}

// -------------------------------------------------------------- rollout ---

TEST(RolloutControl, TickBudgetStopsEarlyWithPartialTotals) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  mdp::Policy policy;
  policy.action.assign(2, 0);
  Rng rng(1);
  robust::RunControl control;
  control.budget = RunBudget::ticks(10);
  const mdp::ModelRolloutResult result =
      mdp::rollout_model(model, policy, 0, 1000, rng, control);
  EXPECT_EQ(result.status, RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.steps, 10u);
  EXPECT_DOUBLE_EQ(result.weight_total, 10.0);  // den stream pays 1 per step
}

TEST(RolloutControl, PreCancelledRunsNoSteps) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  mdp::Policy policy;
  policy.action.assign(2, 0);
  Rng rng(1);
  const mdp::ModelRolloutResult result =
      mdp::rollout_model(model, policy, 0, 1000, rng, cancelled_control());
  EXPECT_EQ(result.status, RunStatus::kCancelled);
  EXPECT_EQ(result.steps, 0u);
}

TEST(RolloutControl, FullRunIsConverged) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  mdp::Policy policy;
  policy.action.assign(2, 0);
  Rng rng(1);
  const mdp::ModelRolloutResult result =
      mdp::rollout_model(model, policy, 0, 1000, rng);
  EXPECT_EQ(result.status, RunStatus::kConverged);
  EXPECT_EQ(result.steps, 1000u);
  EXPECT_NEAR(result.ratio(), 2.0, 1e-9);  // deterministic alternator
}

// ----------------------------------------------------------- simulators ---

TEST(NetworkSimControl, PreCancelledMinesNothing) {
  sim::NetworkConfig config;
  for (int i = 0; i < 2; ++i) {
    sim::NetMiner m;
    m.name = std::string("m").append(std::to_string(i));
    m.power = 0.5;
    config.miners.push_back(m);
  }
  sim::NetworkSimulation simulation(config);
  Rng rng(1);
  const sim::NetworkResult result =
      simulation.run(1000, rng, cancelled_control());
  EXPECT_EQ(result.status, RunStatus::kCancelled);
  EXPECT_EQ(result.blocks_mined, 0u);
}

TEST(NetworkSimControl, TickBudgetStopsEarlyWithConsistentAccounting) {
  sim::NetworkConfig config;
  for (int i = 0; i < 2; ++i) {
    sim::NetMiner m;
    m.name = std::string("m").append(std::to_string(i));
    m.power = 0.5;
    config.miners.push_back(m);
  }
  sim::NetworkSimulation simulation(config);
  Rng rng(1);
  robust::RunControl control;
  control.budget = RunBudget::ticks(100);
  const sim::NetworkResult result = simulation.run(10'000, rng, control);
  EXPECT_EQ(result.status, RunStatus::kBudgetExhausted);
  EXPECT_LT(result.blocks_mined, 10'000u);
  // Whatever prefix was simulated is fully accounted for.
  std::uint64_t settled = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    settled += result.locked_per_miner[i] + result.orphaned_per_miner[i];
  }
  EXPECT_EQ(settled, result.blocks_mined);
}

TEST(ForkSimControl, PreCancelledMinesNothing) {
  sim::ForkSimConfig config;
  for (int i = 0; i < 2; ++i) {
    sim::SimMiner m;
    m.name = std::string("m").append(std::to_string(i));
    m.power = 0.5;
    m.block_size = m.rule.mg;
    config.miners.push_back(m);
  }
  sim::ForkSimulation simulation(config);
  Rng rng(1);
  const sim::ForkSimResult result =
      simulation.run(1000, rng, cancelled_control());
  EXPECT_EQ(result.status, RunStatus::kCancelled);
  EXPECT_EQ(result.blocks_mined, 0u);
}

TEST(ForkSimControl, TickBudgetStopsEarly) {
  sim::ForkSimConfig config;
  for (int i = 0; i < 2; ++i) {
    sim::SimMiner m;
    m.name = std::string("m").append(std::to_string(i));
    m.power = 0.5;
    m.block_size = m.rule.mg;
    config.miners.push_back(m);
  }
  sim::ForkSimulation simulation(config);
  Rng rng(1);
  robust::RunControl control;
  control.budget = RunBudget::ticks(25);
  const sim::ForkSimResult result = simulation.run(1000, rng, control);
  EXPECT_EQ(result.status, RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.blocks_mined, 25u);
}

// ------------------------------------------------------- analysis layer ---

TEST(AnalysisControl, StatusAndDiagnosticsPropagate) {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.375;
  params.gamma = 0.375;
  const bu::AnalysisResult result =
      bu::analyze(params, bu::Utility::kRelativeRevenue);
  EXPECT_EQ(result.status, RunStatus::kConverged);
  EXPECT_TRUE(result.converged());
  EXPECT_GT(result.diagnostics.inner_solves, 0);
  EXPECT_GE(result.diagnostics.elapsed_seconds, 0.0);
}

TEST(AnalysisControl, DeadlineStarvedAnalysisReportsExhaustion) {
  bu::AttackParams params;
  params.alpha = 0.20;
  params.beta = 0.32;
  params.gamma = 0.48;
  params.setting = bu::Setting::kStickyGate;
  bu::AnalysisOptions options;
  options.tolerance = 1e-14;
  options.inner.tolerance = 1e-14;
  options.control.budget = RunBudget::deadline(0.1);
  const bu::AnalysisResult result =
      bu::analyze(params, bu::Utility::kRelativeRevenue, options);
  EXPECT_EQ(result.status, RunStatus::kBudgetExhausted);
  EXPECT_FALSE(result.converged());
  EXPECT_EQ(result.diagnostics.retries, 0);  // budget exhaustion: no retry
}

}  // namespace
