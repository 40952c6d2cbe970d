// Randomized cross-module invariants: properties that must hold for any
// parameters, exercised over random configurations.
#include <gtest/gtest.h>

#include <cmath>

#include "bu/attack_analysis.hpp"
#include "counter/dynamic_limit.hpp"
#include "sim/attack_scenario.hpp"
#include "sim/network_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;

class RandomInvariants : public ::testing::TestWithParam<std::uint64_t> {};

bu::AttackParams random_attack_params(Rng& rng) {
  bu::AttackParams params;
  params.alpha = 0.02 + 0.4 * rng.next_double();
  const double rest = 1.0 - params.alpha;
  const double split = 0.15 + 0.7 * rng.next_double();
  params.beta = rest * split;
  params.gamma = rest - params.beta;
  params.ad = 2 + static_cast<unsigned>(rng.next_below(5));
  params.gate_period = 4 + static_cast<unsigned>(rng.next_below(12));
  params.setting = rng.next_bernoulli(0.5) ? bu::Setting::kStickyGate
                                           : bu::Setting::kNoStickyGate;
  if (rng.next_bernoulli(0.3)) {
    params.ad_carol = 2 + static_cast<unsigned>(rng.next_below(5));
  }
  return params;
}

TEST_P(RandomInvariants, ProfitUtilitiesNeverFallBelowHonest) {
  // "Always OnChain1" is in the strategy space, so the optimum dominates
  // honest mining for u1/u2 and zero for u3, at any parameters.
  Rng rng(GetParam());
  const bu::AttackParams params = random_attack_params(rng);
  const double u1 =
      bu::analyze(params, bu::Utility::kRelativeRevenue).utility_value;
  EXPECT_GE(u1, params.alpha - 1e-4);
  EXPECT_LE(u1, 1.0 + 1e-6);
  const double u3 = bu::analyze(params, bu::Utility::kOrphaning)
                        .utility_value;
  EXPECT_GE(u3, -1e-9);
}

TEST_P(RandomInvariants, RandomPolicyRolloutsConserveBlocks) {
  // Over any policy and any parameters, every mined block is eventually
  // locked or orphaned (up to the in-flight fork at the horizon).
  Rng rng(GetParam() ^ 0xB10C);
  const bu::AttackParams params = random_attack_params(rng);
  const bu::AttackModel model =
      bu::build_attack_model(params, bu::Utility::kAbsoluteReward);
  mdp::Policy policy;
  policy.action.resize(model.space.size());
  for (mdp::StateId id = 0; id < model.space.size(); ++id) {
    policy.action[id] = static_cast<std::uint32_t>(
        rng.next_below(model.compiled->num_actions(id)));
  }
  const std::uint64_t steps = 20'000;
  const bu::RolloutResult rollout =
      bu::rollout_policy(model, policy, steps, rng);
  const double settled = rollout.totals.total_locked() +
                         rollout.totals.total_orphaned();
  // The in-flight fork holds at most l1 + l2 < 2 * max_ad blocks.
  EXPECT_NEAR(settled, static_cast<double>(steps),
              2.0 * params.max_ad());
}

TEST_P(RandomInvariants, ScenarioSimMatchesModelForRandomConfigs) {
  // The chain-semantics cross-check, on random parameters and a random
  // policy (not just the optimal one).
  Rng rng(GetParam() ^ 0x51D);
  bu::AttackParams params = random_attack_params(rng);
  params.ad = 2 + static_cast<unsigned>(rng.next_below(3));
  params.gate_period = 4 + static_cast<unsigned>(rng.next_below(6));
  const bu::AttackModel model =
      bu::build_attack_model(params, bu::Utility::kOrphaning);
  mdp::Policy policy;
  policy.action.resize(model.space.size());
  for (mdp::StateId id = 0; id < model.space.size(); ++id) {
    policy.action[id] = static_cast<std::uint32_t>(
        rng.next_below(model.compiled->num_actions(id)));
  }
  sim::ScenarioOptions options;
  options.check_against_model = true;  // throws on any divergence
  sim::AttackScenarioSim simulator(model, options);
  const sim::ScenarioResult result = simulator.run(policy, 10'000, rng);
  EXPECT_EQ(result.steps, 10'000u);
}

TEST_P(RandomInvariants, NetworkSimConservation) {
  Rng rng(GetParam() ^ 0x7E7);
  sim::NetworkConfig config;
  const std::size_t n = 2 + rng.next_below(4);
  std::vector<double> powers(n);
  double total = 0.0;
  for (double& p : powers) {
    p = 0.1 + rng.next_double();
    total += p;
  }
  for (std::size_t i = 0; i < n; ++i) {
    sim::NetMiner miner;
    miner.name = std::string("m").append(std::to_string(i));
    miner.power = powers[i] / total;
    miner.rule.eb = chain::kMegabyte * (1 + rng.next_below(8));
    miner.rule.mg = miner.rule.eb;
    miner.rule.ad = 2 + static_cast<chain::Height>(rng.next_below(6));
    miner.block_size = miner.rule.mg;
    miner.bandwidth = 1e5 + rng.next_double() * 1e7;
    miner.latency = rng.next_double() * 5.0;
    config.miners.push_back(miner);
  }
  sim::NetworkSimulation simulation(config);
  const std::uint64_t blocks = 3000;
  const sim::NetworkResult result = simulation.run(blocks, rng);
  EXPECT_EQ(result.blocks_mined, blocks);
  EXPECT_EQ(result.canonical_length + result.orphaned_blocks, blocks);
  std::uint64_t settled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    settled += result.locked_per_miner[i] + result.orphaned_per_miner[i];
  }
  EXPECT_EQ(settled, blocks);
}

TEST_P(RandomInvariants, DynamicLimitStaysWithinBoundsAndStepSize) {
  Rng rng(GetParam() ^ 0xC0DE);
  counter::VoteRuleConfig config;
  config.epoch_length = 20 + static_cast<counter::Height>(rng.next_below(80));
  config.activation_delay =
      static_cast<counter::Height>(rng.next_below(config.epoch_length));
  config.adjust_threshold = 0.55 + 0.4 * rng.next_double();
  config.veto_threshold = 0.4 * rng.next_double();
  config.step = 50'000 + rng.next_below(200'000);
  config.initial_limit = 1'000'000;
  config.min_limit = 500'000;
  config.max_limit = 3'000'000;

  counter::DynamicLimitTracker tracker(config);
  counter::ByteSize previous = tracker.current_limit();
  for (int i = 0; i < 20'000; ++i) {
    const auto vote = static_cast<counter::Vote>(rng.next_below(3));
    const counter::ByteSize limit = tracker.on_block(vote);
    EXPECT_GE(limit, config.min_limit);
    EXPECT_LE(limit, config.max_limit);
    // The limit moves by at most one step at a time.
    EXPECT_LE(limit > previous ? limit - previous : previous - limit,
              config.step);
    previous = limit;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInvariants,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{13}));

}  // namespace
