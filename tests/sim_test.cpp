// Simulator tests. The headline suite is the MDP <-> chain-semantics
// cross-validation: AttackScenarioSim replays policies on a real block tree
// with per-node BU validity rules and, in check mode, asserts that every
// step produces exactly the state transition and rewards the abstract model
// predicts.
#include <gtest/gtest.h>

#include <tuple>

#include "bu/attack_analysis.hpp"
#include "sim/attack_scenario.hpp"
#include "sim/fork_simulation.hpp"
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

// --------------------------------------------------------- ForkSimulation --

sim::SimMiner compliant_miner(std::string name, double power,
                              chain::ByteSize eb, chain::ByteSize mg,
                              unsigned ad = 6) {
  sim::SimMiner miner;
  miner.name = std::move(name);
  miner.power = power;
  miner.rule.eb = eb;
  miner.rule.mg = mg;
  miner.rule.ad = ad;
  miner.block_size = mg;
  return miner;
}

TEST(ForkSimulation, HomogeneousNetworkNeverForks) {
  // Stone's observation, reproduced: miners with identical parameters who
  // never adapt their block size produce zero forks at zero delay.
  sim::ForkSimConfig config;
  config.miners = {
      compliant_miner("a", 0.3, chain::kMegabyte, chain::kMegabyte),
      compliant_miner("b", 0.3, chain::kMegabyte, chain::kMegabyte),
      compliant_miner("c", 0.4, chain::kMegabyte, chain::kMegabyte),
  };
  sim::ForkSimulation simulation(config);
  Rng rng(1);
  const sim::ForkSimResult result = simulation.run(20'000, rng);
  EXPECT_EQ(result.fork_episodes, 0u);
  EXPECT_EQ(result.orphaned_blocks, 0u);
  EXPECT_EQ(result.blocks_mined, 20'000u);
}

TEST(ForkSimulation, RewardsProportionalToPowerWithoutForks) {
  sim::ForkSimConfig config;
  config.miners = {
      compliant_miner("a", 0.25, chain::kMegabyte, chain::kMegabyte),
      compliant_miner("b", 0.75, chain::kMegabyte, chain::kMegabyte),
  };
  sim::ForkSimulation simulation(config);
  Rng rng(2);
  const sim::ForkSimResult result = simulation.run(40'000, rng);
  const double share_a = static_cast<double>(result.locked_per_miner[0]) /
                         static_cast<double>(result.blocks_mined);
  EXPECT_NEAR(share_a, 0.25, 0.01);
}

TEST(ForkSimulation, HeterogeneousEbsForkWhenBigBlocksAppear) {
  // A large-MG majority vs a small-EB minority: the minority keeps
  // rejecting big blocks until AD depth, so forks occur organically.
  sim::ForkSimConfig config;
  config.miners = {
      compliant_miner("big", 0.7, 8 * chain::kMegabyte,
                      8 * chain::kMegabyte),
      compliant_miner("small", 0.3, chain::kMegabyte, chain::kMegabyte),
  };
  sim::ForkSimulation simulation(config);
  Rng rng(3);
  const sim::ForkSimResult result = simulation.run(20'000, rng);
  EXPECT_GT(result.fork_episodes, 0u);
  EXPECT_GT(result.orphaned_blocks, 0u);
  // The small-EB miner loses disproportionally many blocks.
  const double small_orphan_share =
      static_cast<double>(result.orphaned_per_miner[1]) /
      static_cast<double>(result.orphaned_blocks + 1);
  EXPECT_GT(small_orphan_share, 0.5);
}

TEST(ForkSimulation, DisagreementResolvesWithinAcceptanceDepth) {
  sim::ForkSimConfig config;
  config.miners = {
      compliant_miner("big", 0.7, 8 * chain::kMegabyte, 8 * chain::kMegabyte,
                      4),
      compliant_miner("small", 0.3, chain::kMegabyte, chain::kMegabyte, 4),
  };
  sim::ForkSimulation simulation(config);
  Rng rng(4);
  const sim::ForkSimResult result = simulation.run(20'000, rng);
  // With AD = 4 the small miner adopts after at most 4 blocks, so the
  // divergence depth stays small.
  EXPECT_LE(result.max_fork_depth, 8u);
}

TEST(ForkSimulation, RejectsMinerAboveOwnMg) {
  sim::ForkSimConfig config;
  config.miners = {
      compliant_miner("a", 1.0, chain::kMegabyte, chain::kMegabyte),
  };
  config.miners[0].block_size = 2 * chain::kMegabyte;  // above its MG
  EXPECT_THROW(sim::ForkSimulation{config}, std::invalid_argument);
}

}  // namespace
