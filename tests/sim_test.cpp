// Simulator tests. The headline suite is the MDP <-> chain-semantics
// cross-validation: AttackScenarioSim replays policies on a real block tree
// with per-node BU validity rules and, in check mode, asserts that every
// step produces exactly the state transition and rewards the abstract model
// predicts.
#include <gtest/gtest.h>

#include <tuple>

#include "bu/attack_analysis.hpp"
#include "sim/attack_scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using bu::Action;
using bu::AttackParams;
using bu::Setting;
using bu::Utility;

AttackParams make_params(double alpha, double beta, double gamma,
                         Setting setting, unsigned ad = 6,
                         unsigned gate_period = 144) {
  AttackParams params;
  params.alpha = alpha;
  params.beta = beta;
  params.gamma = gamma;
  params.setting = setting;
  params.ad = ad;
  params.gate_period = gate_period;
  return params;
}

/// A policy that plays `base_action` at the base state and then fixed
/// actions determined by a seed elsewhere — gives the cross-validation
/// coverage beyond optimal policies.
mdp::Policy pseudo_random_policy(const bu::AttackModel& model,
                                 std::uint64_t seed) {
  mdp::Policy policy;
  policy.action.resize(model.space.size());
  Rng rng(seed);
  for (mdp::StateId id = 0; id < model.space.size(); ++id) {
    policy.action[id] = static_cast<std::uint32_t>(
        rng.next_below(model.compiled->num_actions(id)));
  }
  return policy;
}

// ----------------------------------------------- MDP <-> chain semantics ---

using CrossParam = std::tuple<Setting, Utility, std::uint64_t /*seed*/>;

class CrossValidation : public ::testing::TestWithParam<CrossParam> {};

TEST_P(CrossValidation, ChainSemanticsMatchModelStepByStep) {
  const auto [setting, utility, seed] = GetParam();
  AttackParams params =
      make_params(0.2, 0.4, 0.4, setting, /*ad=*/4, /*gate_period=*/6);
  const bu::AttackModel model = bu::build_attack_model(params, utility);

  sim::ScenarioOptions options;
  options.check_against_model = true;  // throws on any divergence
  options.reroot_threshold = 16;
  sim::AttackScenarioSim simulator(model, options);

  const mdp::Policy policy = pseudo_random_policy(model, seed);
  Rng rng(seed ^ 0xABCDEF);
  const sim::ScenarioResult result = simulator.run(policy, 30'000, rng);
  EXPECT_EQ(result.steps, 30'000u);
}

INSTANTIATE_TEST_SUITE_P(
    SettingsUtilitiesSeeds, CrossValidation,
    ::testing::Combine(::testing::Values(Setting::kNoStickyGate,
                                         Setting::kStickyGate),
                       ::testing::Values(Utility::kRelativeRevenue,
                                         Utility::kAbsoluteReward,
                                         Utility::kOrphaning),
                       ::testing::Values(1ULL, 2ULL, 3ULL)));

TEST(CrossValidationOptimal, OptimalPolicyMatchesModelOnChain) {
  // The optimal attack policy, replayed on real chain semantics with
  // checking enabled, and its utility estimate compared to the solver's.
  const AttackParams params =
      make_params(0.25, 0.375, 0.375, Setting::kNoStickyGate);
  const bu::AttackModel model =
      bu::build_attack_model(params, Utility::kRelativeRevenue);
  const bu::AnalysisResult analysis = bu::analyze(model);

  sim::ScenarioOptions options;
  options.check_against_model = true;
  sim::AttackScenarioSim simulator(model, options);
  Rng rng(20170417);
  const sim::ScenarioResult result =
      simulator.run(analysis.policy, 1'000'000, rng);
  EXPECT_NEAR(result.utility_estimate, analysis.utility_value, 0.01);
  EXPECT_GT(result.forks_started, 0u);
}

TEST(CrossValidationOptimal, StickyGateScenarioExercisesPhase2) {
  AttackParams params =
      make_params(0.25, 0.30, 0.45, Setting::kStickyGate, 4, 8);
  const bu::AttackModel model =
      bu::build_attack_model(params, Utility::kRelativeRevenue);
  const bu::AnalysisResult analysis = bu::analyze(model);

  sim::ScenarioOptions options;
  options.check_against_model = true;
  sim::AttackScenarioSim simulator(model, options);
  Rng rng(99);
  const sim::ScenarioResult result =
      simulator.run(analysis.policy, 500'000, rng);
  // The gate must actually open for the scenario to cover phase 2.
  EXPECT_GT(result.gate_openings, 0u);
  EXPECT_NEAR(result.utility_estimate, analysis.utility_value, 0.01);
}

TEST(ScenarioSim, RequiresLockedCountdownInCheckMode) {
  AttackParams params = make_params(0.2, 0.4, 0.4, Setting::kStickyGate);
  params.countdown = bu::GateCountdown::kPaperText;
  const bu::AttackModel model =
      bu::build_attack_model(params, Utility::kRelativeRevenue);
  sim::ScenarioOptions options;
  options.check_against_model = true;
  EXPECT_THROW(sim::AttackScenarioSim(model, options),
               std::invalid_argument);
}

TEST(ScenarioSim, RequiresOrderedEbs) {
  const AttackParams params =
      make_params(0.2, 0.4, 0.4, Setting::kNoStickyGate);
  const bu::AttackModel model =
      bu::build_attack_model(params, Utility::kRelativeRevenue);
  sim::ScenarioOptions options;
  options.eb_bob = options.eb_carol;
  EXPECT_THROW(sim::AttackScenarioSim(model, options),
               std::invalid_argument);
}

TEST(ScenarioSim, HonestPolicyNeverForks) {
  const AttackParams params =
      make_params(0.2, 0.4, 0.4, Setting::kNoStickyGate);
  const bu::AttackModel model =
      bu::build_attack_model(params, Utility::kRelativeRevenue);
  mdp::Policy honest;
  honest.action.assign(model.space.size(), 0);  // OnChain1 everywhere
  sim::ScenarioOptions options;
  options.check_against_model = true;
  sim::AttackScenarioSim simulator(model, options);
  Rng rng(5);
  const sim::ScenarioResult result = simulator.run(honest, 100'000, rng);
  EXPECT_EQ(result.forks_started, 0u);
  EXPECT_DOUBLE_EQ(result.totals.total_orphaned(), 0.0);
  EXPECT_NEAR(result.utility_estimate, 0.2, 0.01);
}

}  // namespace
