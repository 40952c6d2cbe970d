#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mdp/average_reward.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/policy_iteration.hpp"
#include "mdp/ratio.hpp"
#include "util/check.hpp"

namespace {

using namespace bvc::mdp;

// ----------------------------------------------------------- ModelBuilder --

TEST(ModelBuilder, BuildsSimpleModel) {
  ModelBuilder builder(2);
  builder.begin_action(0, 7);
  builder.add_outcome(1, 1.0, 2.0, 1.0);
  builder.begin_action(1, 9);
  builder.add_outcome(0, 0.5, 1.0, 0.0);
  builder.add_outcome(1, 0.5, 0.0, 0.0);
  const CompiledModel model = builder.build();

  EXPECT_EQ(model.num_states(), 2u);
  EXPECT_EQ(model.num_state_actions(), 2u);
  EXPECT_EQ(model.num_actions(0), 1u);
  EXPECT_EQ(model.action_label(model.sa_index(0, 0)), 7);
  EXPECT_EQ(model.action_label(model.sa_index(1, 0)), 9);
  EXPECT_DOUBLE_EQ(model.expected_reward(model.sa_index(0, 0)), 2.0);
  EXPECT_DOUBLE_EQ(model.expected_reward(model.sa_index(1, 0)), 0.5);
  EXPECT_DOUBLE_EQ(model.expected_weight(model.sa_index(0, 0)), 1.0);
}

TEST(ModelBuilder, MergesDuplicateSuccessors) {
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 0.25, 4.0, 0.0);
  builder.add_outcome(1, 0.75, 0.0, 0.0);
  builder.begin_action(1, 0);
  builder.add_outcome(1, 1.0);
  const CompiledModel model = builder.build();

  const SaIndex sa = model.sa_index(0, 0);
  ASSERT_EQ(model.outcome_end(sa) - model.outcome_begin(sa), 1u);
  const std::size_t k = model.outcome_begin(sa);
  EXPECT_DOUBLE_EQ(model.prob()[k], 1.0);
  // Probability-weighted reward: 0.25 * 4 + 0.75 * 0 = 1.
  EXPECT_DOUBLE_EQ(model.reward()[k], 1.0);
}

TEST(ModelBuilder, DropsZeroProbabilityBranches) {
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 0.0, 99.0, 0.0);
  builder.add_outcome(0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(1, 1.0);
  const CompiledModel model = builder.build();
  const SaIndex sa = model.sa_index(0, 0);
  EXPECT_EQ(model.outcome_end(sa) - model.outcome_begin(sa), 1u);
}

TEST(ModelBuilder, IsEmptyAgainAfterBuild) {
  ModelBuilder builder(1);
  builder.begin_action(0, 3);
  builder.add_outcome(0, 1.0, 1.0, 0.0);
  const CompiledModel first = builder.build();
  builder.begin_action(0, 5);
  builder.add_outcome(0, 1.0, 2.0, 0.0);
  const CompiledModel second = builder.build();
  EXPECT_EQ(second.num_state_actions(), 1u);
  EXPECT_EQ(second.action_label(0), 5);
  EXPECT_DOUBLE_EQ(second.expected_reward(0), 2.0);
  EXPECT_EQ(first.action_label(0), 3);
  // Built and left empty, it rejects a build with an uncovered state.
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(ModelBuilder, RejectsUncoveredState) {
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0);
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(ModelBuilder, RejectsBadProbabilitySum) {
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 0.7);
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(ModelBuilder, RejectsNegativeProbability) {
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  EXPECT_THROW(builder.add_outcome(0, -0.25), std::invalid_argument);
}

TEST(ModelBuilder, RejectsOutcomeBeforeAction) {
  ModelBuilder builder(1);
  EXPECT_THROW(builder.add_outcome(0, 1.0), std::invalid_argument);
}

TEST(ModelBuilder, RejectsOutOfRangeSuccessor) {
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  EXPECT_THROW(builder.add_outcome(3, 1.0), std::invalid_argument);
}

// ---------------------------------------------------------- average reward --

/// Two-state alternator with distinct rewards: gain = (r0 + r1) / 2.
CompiledModel make_alternator(double r0, double r1) {
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0, r0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, r1, 1.0);
  return builder.build();
}

TEST(AverageReward, AlternatorGain) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  const GainResult result = maximize_average_reward(model);
  EXPECT_TRUE(result.converged());
  EXPECT_NEAR(result.gain, 2.0, 1e-6);
}

TEST(AverageReward, PeriodicChainConvergesViaAperiodicityTransform) {
  // A strictly periodic two-cycle: without the transform, plain value
  // iteration oscillates.
  const CompiledModel model = make_alternator(0.0, 1.0);
  AverageRewardKnobs config;
  config.aperiodicity_tau = 0.9;
  const GainResult result = maximize_average_reward(model, config);
  EXPECT_TRUE(result.converged());
  EXPECT_NEAR(result.gain, 0.5, 1e-6);
}

TEST(AverageReward, PicksBetterAction) {
  // State 0 chooses between reward 1 (stay) and reward 2 (stay).
  ModelBuilder builder(1);
  builder.begin_action(0, 10);
  builder.add_outcome(0, 1.0, 1.0, 1.0);
  builder.begin_action(0, 20);
  builder.add_outcome(0, 1.0, 2.0, 1.0);
  const CompiledModel model = builder.build();
  const GainResult result = maximize_average_reward(model);
  EXPECT_NEAR(result.gain, 2.0, 1e-8);
  EXPECT_EQ(model.action_label(model.sa_index(0, result.policy.action[0])),
            20);
}

TEST(AverageReward, TradesImmediateRewardForBetterState) {
  // State 0: action A pays 10 but moves to a sink paying 0; action B pays 0
  // but moves to a state paying 5 forever. Gain-optimal play takes B.
  ModelBuilder builder(3);
  builder.begin_action(0, 0);  // A
  builder.add_outcome(1, 1.0, 10.0, 1.0);
  builder.begin_action(0, 1);  // B
  builder.add_outcome(2, 1.0, 0.0, 1.0);
  builder.begin_action(1, 0);  // sink, 0 forever
  builder.add_outcome(1, 1.0, 0.0, 1.0);
  builder.begin_action(2, 0);  // good state, 5 forever
  builder.add_outcome(2, 1.0, 5.0, 1.0);
  const CompiledModel model = builder.build();
  // Note: this model is multichain (the sink is absorbing), but every state
  // reaches some recurrent class and the maximal gain from state 0 is 5.
  const GainResult result = maximize_average_reward(model);
  EXPECT_EQ(model.action_label(model.sa_index(0, result.policy.action[0])), 1);
}

TEST(AverageReward, RandomWalkGainMatchesStationaryAverage) {
  // Birth-death chain on {0,1,2} with reward = state index.
  // p(up) = 0.5, p(down) = 0.5 (reflecting): stationary = (1/4, 1/2, 1/4).
  ModelBuilder builder(3);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 0.5, 0.0, 0.0);
  builder.add_outcome(0, 0.5, 0.0, 0.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 0.5, 1.0, 0.0);
  builder.add_outcome(2, 0.5, 1.0, 0.0);
  builder.begin_action(2, 0);
  builder.add_outcome(1, 0.5, 2.0, 0.0);
  builder.add_outcome(2, 0.5, 2.0, 0.0);
  const CompiledModel model = builder.build();
  const GainResult result = maximize_average_reward(model);
  EXPECT_NEAR(result.gain, 0.25 * 0.0 + 0.5 * 1.0 + 0.25 * 2.0, 1e-6);
}

TEST(AverageReward, WarmStartReachesSameGain) {
  const CompiledModel model = make_alternator(1.0, 3.0);
  std::vector<double> rewards(model.num_state_actions());
  for (SaIndex sa = 0; sa < rewards.size(); ++sa) {
    rewards[sa] = model.expected_reward(sa);
  }
  const GainResult cold = maximize_average_reward(model, rewards);
  const GainResult warm = maximize_average_reward(
      model, rewards, AverageRewardKnobs{}, &cold.bias);
  EXPECT_NEAR(cold.gain, warm.gain, 1e-9);
  EXPECT_LE(warm.sweeps(), cold.sweeps());
}

TEST(AverageReward, RejectsWrongRewardVectorSize) {
  const CompiledModel model = make_alternator(1.0, 1.0);
  const std::vector<double> rewards = {1.0};
  EXPECT_THROW((void)maximize_average_reward(model, rewards),
               std::invalid_argument);
}

TEST(PolicyEvaluation, EvaluatesBothStreams) {
  // One state, one action: reward 2 per step, weight 0.5 per step.
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 2.0, 0.5);
  const CompiledModel model = builder.build();
  Policy policy;
  policy.action = {0};
  const PolicyGains gains = evaluate_policy_average(model, policy);
  EXPECT_TRUE(gains.converged());
  EXPECT_NEAR(gains.reward_rate, 2.0, 1e-8);
  EXPECT_NEAR(gains.weight_rate, 0.5, 1e-8);
}

TEST(PolicyEvaluation, SuboptimalPolicyHasLowerGain) {
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 1.0, 1.0);
  builder.begin_action(0, 1);
  builder.add_outcome(0, 1.0, 5.0, 1.0);
  const CompiledModel model = builder.build();
  Policy bad;
  bad.action = {0};
  EXPECT_NEAR(evaluate_policy_average(model, bad).reward_rate,
      1.0, 1e-8);
}

// ------------------------------------------------------------------ ratio --

TEST(Ratio, SingleStateRatioOfStreams) {
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 3.0, 4.0);
  const CompiledModel model = builder.build();
  RatioKnobs config;
  config.upper_bound = 10.0;
  const RatioResult result = maximize_ratio(model, config);
  EXPECT_TRUE(result.converged());
  EXPECT_NEAR(result.ratio, 0.75, 1e-6);
}

TEST(Ratio, PrefersHigherRatioNotHigherReward) {
  // Action A: reward 10, weight 10 (ratio 1). Action B: reward 2, weight 1
  // (ratio 2). A pure reward maximizer picks A; the ratio solver must pick B.
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 10.0, 10.0);
  builder.begin_action(0, 1);
  builder.add_outcome(0, 1.0, 2.0, 1.0);
  const CompiledModel model = builder.build();
  RatioKnobs config;
  config.upper_bound = 10.0;
  const RatioResult result = maximize_ratio(model, config);
  EXPECT_NEAR(result.ratio, 2.0, 1e-6);
  EXPECT_EQ(model.action_label(model.sa_index(0, result.policy.action[0])), 1);
}

TEST(Ratio, HandlesDegenerateZeroWeightAction) {
  // Action A accrues nothing at all ("wait forever"); action B has ratio
  // 0.5. The solver must not get stuck on the degenerate action.
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 0.0, 0.0);
  builder.begin_action(0, 1);
  builder.add_outcome(0, 1.0, 1.0, 2.0);
  const CompiledModel model = builder.build();
  RatioKnobs config;
  config.upper_bound = 5.0;
  const RatioResult result = maximize_ratio(model, config);
  EXPECT_NEAR(result.ratio, 0.5, 1e-5);
}

TEST(Ratio, TwoStateMixedRatio) {
  // States alternate; rewards differ by state. Only one policy exists:
  // ratio = (1 + 3) / (2 + 2) = 1.
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0, 1.0, 2.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, 3.0, 2.0);
  const CompiledModel model = builder.build();
  RatioKnobs config;
  config.upper_bound = 10.0;
  const RatioResult result = maximize_ratio(model, config);
  EXPECT_NEAR(result.ratio, 1.0, 1e-6);
}

TEST(Ratio, StatefulTradeoff) {
  // From state 0, action A stays with (num 1, den 1); action B moves to
  // state 1 with (0, 1), where the only action returns with (4, 1).
  // Policy A: ratio 1. Policy B: (0+4)/(1+1) = 2. B wins.
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 1.0, 1.0);
  builder.begin_action(0, 1);
  builder.add_outcome(1, 1.0, 0.0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, 4.0, 1.0);
  const CompiledModel model = builder.build();
  RatioKnobs config;
  config.upper_bound = 10.0;
  const RatioResult result = maximize_ratio(model, config);
  EXPECT_NEAR(result.ratio, 2.0, 1e-6);
  EXPECT_EQ(model.action_label(model.sa_index(0, result.policy.action[0])), 1);
}

TEST(Ratio, ReportsPolicyRates) {
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 3.0, 6.0);
  const CompiledModel model = builder.build();
  RatioKnobs config;
  config.upper_bound = 2.0;
  const RatioResult result = maximize_ratio(model, config);
  EXPECT_NEAR(result.reward_rate, 3.0, 1e-6);
  EXPECT_NEAR(result.weight_rate, 6.0, 1e-6);
}

TEST(Ratio, RejectsEmptyBracket) {
  const CompiledModel model = make_alternator(1.0, 1.0);
  RatioKnobs config;
  config.lower_bound = 1.0;
  config.upper_bound = 1.0;
  EXPECT_THROW((void)maximize_ratio(model, config),
               std::invalid_argument);
}

TEST(Ratio, BisectionRecordsThePolicyItFinds) {
  // State 0 stays on A (ratio -1) or D (a self-loop whose denominator rate,
  // 0.05, is below min_weight_rate), or starts G, a six-step cycle of
  // ratio -1/6. The inner solves are capped at 15 sweeps. With exact inner
  // solves bisection never records a policy: a degenerate maximizer at
  // rho = lo stays the maximizer above it. Capped ones get there: the
  // first Dinkelbach step finds G but evaluates it 2e-5 off, the next
  // capped solve returns D, and bisection takes over. Its warm-started
  // evaluations of G are sharper, and it must record them so that the
  // reported policy's rates give exactly the reported ratio.
  constexpr StateId kCycle = 6;
  ModelBuilder builder(kCycle);
  builder.begin_action(0, 0);  // A
  builder.add_outcome(0, 1.0, -1.0, 1.0);
  builder.begin_action(0, 1);  // D
  builder.add_outcome(0, 1.0, -0.01, 0.05);
  builder.begin_action(0, 2);  // G
  builder.add_outcome(1, 1.0, 0.0, 1.0);
  for (StateId s = 1; s + 1 < kCycle; ++s) {
    builder.begin_action(s, 0);
    builder.add_outcome(s + 1, 1.0, 0.0, 1.0);
  }
  builder.begin_action(kCycle - 1, 0);
  builder.add_outcome(0, 1.0, -1.0, 1.0);
  const CompiledModel model = builder.build();
  RatioKnobs config;
  config.lower_bound = -5.0;
  config.upper_bound = 0.0;
  config.min_weight_rate = 0.1;
  config.inner.max_sweeps = 15;
  config.inner.aperiodicity_tau = 0.5;
  config.inner.tolerance = 1e-10;
  const RatioResult result = maximize_ratio(model, config);
  ASSERT_TRUE(result.used_bisection);
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.policy.action[0], 2u);  // G
  EXPECT_EQ(result.ratio, result.reward_rate / result.weight_rate);

  const std::size_t pairs = model.num_state_actions();
  const PolicyIterationResult exact =
      policy_iteration(model, {model.expected_reward(), pairs},
                       {model.expected_weight(), pairs});
  ASSERT_TRUE(exact.converged());
  EXPECT_NEAR(result.ratio, exact.value, config.tolerance);
}

TEST(Ratio, ThrowsOnUnboundedObjective) {
  // Positive numerator with identically zero denominator: the ratio has no
  // finite supremum and the solver must refuse rather than return garbage.
  ModelBuilder builder(1);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 1.0, 0.0);
  const CompiledModel model = builder.build();
  RatioKnobs config;
  config.upper_bound = 100.0;
  EXPECT_THROW((void)maximize_ratio(model, config),
               bvc::InternalError);
}

}  // namespace

// --------------------------------------------------------------- rollout --

#include "mdp/rollout.hpp"
#include "util/rng.hpp"

namespace {

TEST(Rollout, MatchesAnalyticGainOnAlternator) {
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0, 1.0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 0.5, 3.0, 1.0);
  builder.add_outcome(1, 0.5, 0.0, 1.0);
  const CompiledModel model = builder.build();
  Policy policy;
  policy.action = {0, 0};

  const CompiledModel compiled = model;
  const PolicyGains gains = evaluate_policy_average(compiled, policy);
  bvc::Rng rng(77);
  const ModelRolloutResult rollout =
      rollout_model(compiled, policy, 0, 500'000, rng);
  EXPECT_NEAR(rollout.reward_rate(), gains.reward_rate, 5e-3);
  EXPECT_NEAR(rollout.ratio(), gains.reward_rate / gains.weight_rate, 5e-3);
}

TEST(Rollout, RejectsIncompletePolicy) {
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0);
  const CompiledModel model = builder.build();
  Policy policy;
  policy.action = {0};
  bvc::Rng rng(1);
  EXPECT_THROW((void)rollout_model(model, policy, 0, 10, rng),
               std::invalid_argument);
}

}  // namespace
