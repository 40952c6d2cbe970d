#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "games/block_size_game.hpp"
#include "games/eb_choosing.hpp"
#include "games/game_batch.hpp"
#include "mdp/batch.hpp"
#include "robust/run_control.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc::games;
using bvc::Rng;

// --------------------------------------------------------- EbChoosingGame --

TEST(EbChoosing, ExactTieLeavesEveryoneWithNothing) {
  // M1 == M2 is the paper's "unpredictable" case: zero utility for all.
  EbChoosingGame game({0.25, 0.25, 0.25, 0.25});
  const std::vector<std::size_t> profile = {0, 0, 1, 1};
  const auto u = game.utilities(profile);
  for (const double ui : u) {
    EXPECT_DOUBLE_EQ(ui, 0.0);
  }
}

TEST(EbChoosing, WinningGroupSplitsProportionally) {
  EbChoosingGame game({0.4, 0.35, 0.25});
  const std::vector<std::size_t> profile = {0, 0, 1};
  const auto u = game.utilities(profile);
  EXPECT_NEAR(u[0], 0.4 / 0.75, 1e-12);
  EXPECT_NEAR(u[1], 0.35 / 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(u[2], 0.0);
}

TEST(EbChoosing, AllSameEbIsNashEquilibrium) {
  // Analytical Result 4.
  EbChoosingGame game({0.1, 0.2, 0.3, 0.4});
  for (std::size_t v = 0; v < game.num_values(); ++v) {
    const std::vector<std::size_t> profile(4, v);
    EXPECT_TRUE(game.is_nash_equilibrium(profile));
  }
}

TEST(EbChoosing, LosingMinerWantsToJoinTheMajority) {
  EbChoosingGame game({0.45, 0.35, 0.2});
  const std::vector<std::size_t> profile = {0, 0, 1};
  EXPECT_EQ(game.best_response(profile, 2), 0u);
  EXPECT_FALSE(game.is_nash_equilibrium(profile));
}

TEST(EbChoosing, WinnerMayDefectToASmallerWinningCoalition) {
  // A subtlety of the utility: miner 0 (45%) deviating to miner 2's value
  // still wins (45 + 20 > 35) and shares with less power — so mixed
  // profiles are doubly unstable; only all-same-EB profiles are equilibria.
  EbChoosingGame game({0.45, 0.35, 0.2});
  const std::vector<std::size_t> profile = {0, 0, 1};
  EXPECT_EQ(game.best_response(profile, 0), 1u);
  EXPECT_FALSE(game.is_nash_equilibrium(profile));
}

TEST(EbChoosing, DynamicsConvergeToConsensus) {
  // From any split, best-response dynamics end in an all-same-EB NE — the
  // "following the majority is rational" observation of Sect. 6.1.
  EbChoosingGame game({0.3, 0.25, 0.25, 0.2}, 3);
  Rng rng(1234);
  const EbChoosingGame::DynamicsResult result =
      game.best_response_dynamics({0, 1, 2, 1}, rng);
  EXPECT_TRUE(result.converged());
  EXPECT_TRUE(game.is_nash_equilibrium(result.profile));
  for (const std::size_t choice : result.profile) {
    EXPECT_EQ(choice, result.profile.front());
  }
}

TEST(EbChoosing, DynamicsSweepOverRandomStarts) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    // Random powers for 3-6 miners, each < 0.5.
    const std::size_t n = 3 + rng.next_below(4);
    std::vector<double> power(n);
    double total = 0.0;
    for (double& p : power) {
      p = 0.1 + rng.next_double();
      total += p;
    }
    bool ok = true;
    for (double& p : power) {
      p /= total;
      ok = ok && p < 0.5;
    }
    if (!ok) {
      continue;
    }
    EbChoosingGame game(power, 2 + rng.next_below(3));
    std::vector<std::size_t> start(n);
    for (auto& choice : start) {
      choice = rng.next_below(game.num_values());
    }
    const auto result = game.best_response_dynamics(start, rng, 200);
    EXPECT_TRUE(result.converged());
    EXPECT_TRUE(game.is_nash_equilibrium(result.profile));
  }
}

TEST(EbChoosing, RejectsInvalidPowers) {
  EXPECT_THROW(EbChoosingGame({0.6, 0.4}), std::invalid_argument);  // >= 0.5
  EXPECT_THROW(EbChoosingGame({0.3, 0.3}), std::invalid_argument);  // sum != 1
  EXPECT_THROW(EbChoosingGame({1.0}), std::invalid_argument);  // one miner
}

// ---------------------------------------------- BlockSizeIncreasingGame ---

std::vector<MinerGroup> make_groups(const std::vector<double>& powers) {
  std::vector<MinerGroup> groups;
  double mpb = 1.0;
  for (const double p : powers) {
    groups.push_back(MinerGroup{p, mpb});
    mpb *= 2.0;
  }
  return groups;
}

TEST(BlockSizeGame, Figure4Instance) {
  // m = (10, 20, 30, 40)%: round 1 raises the size and squeezes group 1 out;
  // round 2's vote fails (groups 2+3 hold 50% >= 40%) and the game ends.
  BlockSizeIncreasingGame game(make_groups({0.1, 0.2, 0.3, 0.4}));
  EXPECT_FALSE(game.is_stable_suffix(0));
  EXPECT_TRUE(game.is_stable_suffix(1));
  EXPECT_EQ(game.termination_suffix(), 1u);
  EXPECT_FALSE(game.emergent_consensus_holds());

  const auto outcome = game.play();
  ASSERT_EQ(outcome.rounds.size(), 2u);
  EXPECT_TRUE(outcome.rounds[0].passed);
  EXPECT_EQ(outcome.rounds[0].leaving_group, 0u);
  EXPECT_NEAR(outcome.rounds[0].yes_power, 0.9, 1e-12);
  EXPECT_FALSE(outcome.rounds[1].passed);
  EXPECT_NEAR(outcome.rounds[1].no_power, 0.5, 1e-12);
  EXPECT_NEAR(outcome.rounds[1].yes_power, 0.4, 1e-12);
  EXPECT_EQ(outcome.surviving_from, 1u);
  // Survivors split rewards by power: 20/90, 30/90, 40/90.
  EXPECT_DOUBLE_EQ(outcome.utilities[0], 0.0);
  EXPECT_NEAR(outcome.utilities[1], 0.2 / 0.9, 1e-12);
  EXPECT_NEAR(outcome.utilities[2], 0.3 / 0.9, 1e-12);
  EXPECT_NEAR(outcome.utilities[3], 0.4 / 0.9, 1e-12);
}

TEST(BlockSizeGame, SingleGroupIsTriviallyStable) {
  BlockSizeIncreasingGame game(make_groups({1.0}));
  EXPECT_TRUE(game.is_stable_suffix(0));
  EXPECT_TRUE(game.emergent_consensus_holds());
  const auto outcome = game.play();
  EXPECT_TRUE(outcome.rounds.empty());
  EXPECT_DOUBLE_EQ(outcome.utilities[0], 1.0);
}

TEST(BlockSizeGame, LastGroupAloneAlwaysStable) {
  BlockSizeIncreasingGame game(make_groups({0.2, 0.3, 0.5}));
  EXPECT_TRUE(game.is_stable_suffix(2));
}

TEST(BlockSizeGame, DominantLastGroupSqueezesEveryoneOut) {
  // A 60% group at the top: every vote passes until it is alone... unless a
  // front coalition can hold. With (0.2, 0.2, 0.6) the front never holds.
  BlockSizeIncreasingGame game(make_groups({0.2, 0.2, 0.6}));
  EXPECT_EQ(game.termination_suffix(), 2u);
  const auto outcome = game.play();
  EXPECT_EQ(outcome.surviving_from, 2u);
  EXPECT_DOUBLE_EQ(outcome.utilities[2], 1.0);
}

TEST(BlockSizeGame, BalancedPairSurvives) {
  // Two groups 50/50: suffix {1} stable; is {0,1} stable? front = m0 = 0.5,
  // back = 0.5: 0.5 > 0.5 fails -> not stable -> group 0 leaves.
  BlockSizeIncreasingGame game(make_groups({0.5, 0.5}));
  EXPECT_EQ(game.termination_suffix(), 1u);
}

TEST(BlockSizeGame, MajorityFrontGroupTerminatesImmediately) {
  // Group 0 with 60%: front majority votes no in round 1.
  BlockSizeIncreasingGame game(make_groups({0.6, 0.4}));
  EXPECT_TRUE(game.is_stable_suffix(0));
  EXPECT_TRUE(game.emergent_consensus_holds());
  const auto outcome = game.play();
  ASSERT_EQ(outcome.rounds.size(), 1u);  // only the failed terminating vote
  EXPECT_FALSE(outcome.rounds[0].passed);
}

TEST(BlockSizeGame, StabilityNeedsBothConditions) {
  // (0.4, 0.2, 0.4): suffix {2} stable. {1,2}: front 0.2 > 0.4? no -> not
  // stable. {0,1,2}: largest stable subset {2}; front = 0.6 > 0.4 and
  // front-tail = 0.2 <= 0.4 -> stable: groups 0 and 1 jointly deter raises.
  BlockSizeIncreasingGame game(make_groups({0.4, 0.2, 0.4}));
  EXPECT_FALSE(game.is_stable_suffix(1));
  EXPECT_TRUE(game.is_stable_suffix(0));
  EXPECT_TRUE(game.emergent_consensus_holds());
}

TEST(BlockSizeGame, PlayTraceNeverViolatesStableCharacterization) {
  // Property sweep: for random power splits, play() terminates exactly at
  // termination_suffix(), every passing round has yes-power >= no-power and
  // utilities sum to 1 over survivors.
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.next_below(6);
    std::vector<double> powers(n);
    double total = 0.0;
    for (double& p : powers) {
      p = 0.05 + rng.next_double();
      total += p;
    }
    for (double& p : powers) {
      p /= total;
    }
    BlockSizeIncreasingGame game(make_groups(powers));
    const auto outcome = game.play();
    EXPECT_EQ(outcome.surviving_from, game.termination_suffix());
    double utility_sum = 0.0;
    for (const double u : outcome.utilities) {
      utility_sum += u;
    }
    EXPECT_NEAR(utility_sum, 1.0, 1e-9);
    for (const auto& round : outcome.rounds) {
      if (round.passed) {
        EXPECT_GE(round.yes_power + 1e-12, round.no_power);
      }
    }
    // The terminating failed vote exists whenever >1 group survives.
    if (game.termination_suffix() + 1 < n) {
      ASSERT_FALSE(outcome.rounds.empty());
      EXPECT_FALSE(outcome.rounds.back().passed);
    }
  }
}

TEST(BlockSizeGame, DescribeMentionsRoundsAndSurvivors) {
  BlockSizeIncreasingGame game(make_groups({0.1, 0.2, 0.3, 0.4}));
  const std::string text = game.describe(game.play());
  EXPECT_NE(text.find("round 1"), std::string::npos);
  EXPECT_NE(text.find("group 1 leaves"), std::string::npos);
  EXPECT_NE(text.find("terminated"), std::string::npos);
}

TEST(BlockSizeGame, RejectsNonIncreasingMpb) {
  std::vector<MinerGroup> groups = {{0.5, 2.0}, {0.5, 1.0}};
  EXPECT_THROW(BlockSizeIncreasingGame{groups}, std::invalid_argument);
}

// ------------------------------------------------------------ GameBatch ---

/// Random block size games: 2-7 groups with normalized powers.
std::vector<BlockSizeGameJob> block_size_jobs(std::size_t count) {
  Rng rng(31);
  std::vector<BlockSizeGameJob> jobs(count);
  for (BlockSizeGameJob& job : jobs) {
    std::vector<double> powers(2 + rng.next_below(6));
    double total = 0.0;
    for (double& p : powers) {
      p = 0.05 + rng.next_double();
      total += p;
    }
    for (double& p : powers) {
      p /= total;
    }
    job.groups = make_groups(powers);
  }
  return jobs;
}

/// Random EB games (3-6 miners, each under half the power) from random
/// starts, each with its own seed.
std::vector<EbDynamicsJob> eb_dynamics_jobs(std::size_t count) {
  Rng rng(57);
  std::vector<EbDynamicsJob> jobs;
  while (jobs.size() < count) {
    EbDynamicsJob job;
    job.power.resize(3 + rng.next_below(4));
    double total = 0.0;
    for (double& p : job.power) {
      p = 0.1 + rng.next_double();
      total += p;
    }
    bool valid = true;
    for (double& p : job.power) {
      p /= total;
      valid = valid && p < 0.5;
    }
    if (!valid) {
      continue;
    }
    job.num_values = 2 + rng.next_below(3);
    for (std::size_t i = 0; i < job.power.size(); ++i) {
      job.start.push_back(rng.next_below(job.num_values));
    }
    job.seed = 1000 + jobs.size();
    job.max_rounds = 200;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void expect_same_outcome(const BlockSizeIncreasingGame::Outcome& batch,
                         const BlockSizeIncreasingGame::Outcome& serial) {
  EXPECT_EQ(batch.status, serial.status);
  EXPECT_EQ(batch.iterations, serial.iterations);
  EXPECT_EQ(batch.surviving_from, serial.surviving_from);
  EXPECT_EQ(batch.final_block_size, serial.final_block_size);
  EXPECT_EQ(batch.utilities, serial.utilities);
  ASSERT_EQ(batch.rounds.size(), serial.rounds.size());
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    EXPECT_EQ(batch.rounds[r].leaving_group, serial.rounds[r].leaving_group);
    EXPECT_EQ(batch.rounds[r].votes_yes, serial.rounds[r].votes_yes);
    EXPECT_EQ(batch.rounds[r].yes_power, serial.rounds[r].yes_power);
    EXPECT_EQ(batch.rounds[r].no_power, serial.rounds[r].no_power);
    EXPECT_EQ(batch.rounds[r].passed, serial.rounds[r].passed);
    EXPECT_EQ(batch.rounds[r].new_block_size,
              serial.rounds[r].new_block_size);
  }
}

EbChoosingGame::DynamicsResult serial_dynamics(const EbDynamicsJob& job) {
  const EbChoosingGame game(job.power, job.num_values);
  Rng rng(job.seed);
  return game.best_response_dynamics(job.start, rng, {}, job.max_rounds);
}

TEST(GameBatch, BlockSizeBatchMatchesSerialPlay) {
  const std::vector<BlockSizeGameJob> jobs = block_size_jobs(24);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    bvc::mdp::BatchConfig config;
    config.threads = threads;
    const std::vector<BlockSizeIncreasingGame::Outcome> outcomes =
        play_block_size_batch(jobs, config);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_TRUE(outcomes[i].converged());
      expect_same_outcome(outcomes[i],
                          BlockSizeIncreasingGame(jobs[i].groups).play());
    }
  }
}

TEST(GameBatch, DynamicsBatchMatchesSerialDynamics) {
  const std::vector<EbDynamicsJob> jobs = eb_dynamics_jobs(24);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    bvc::mdp::BatchConfig config;
    config.threads = threads;
    const std::vector<EbChoosingGame::DynamicsResult> results =
        best_response_dynamics_batch(jobs, config);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE(i);
      const EbChoosingGame::DynamicsResult serial = serial_dynamics(jobs[i]);
      EXPECT_TRUE(results[i].converged());
      EXPECT_EQ(results[i].status, serial.status);
      EXPECT_EQ(results[i].iterations, serial.iterations);
      EXPECT_EQ(results[i].profile, serial.profile);
    }
  }
}

TEST(GameBatch, OneTickBudgetStartsOnlyTheFirstJob) {
  const std::vector<BlockSizeGameJob> games = block_size_jobs(6);
  const std::vector<EbDynamicsJob> dynamics = eb_dynamics_jobs(6);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    bvc::mdp::BatchConfig config;
    config.threads = threads;
    config.control.budget = bvc::robust::RunBudget::ticks(1);
    // Pickup is index-ordered, so the first job runs to completion and
    // every later one is skipped with an empty result.
    const std::vector<BlockSizeIncreasingGame::Outcome> outcomes =
        play_block_size_batch(games, config);
    ASSERT_EQ(outcomes.size(), games.size());
    expect_same_outcome(outcomes[0],
                        BlockSizeIncreasingGame(games[0].groups).play());
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].status, bvc::robust::RunStatus::kBudgetExhausted);
      EXPECT_TRUE(outcomes[i].rounds.empty());
    }
    const std::vector<EbChoosingGame::DynamicsResult> results =
        best_response_dynamics_batch(dynamics, config);
    ASSERT_EQ(results.size(), dynamics.size());
    EXPECT_EQ(results[0].profile, serial_dynamics(dynamics[0]).profile);
    EXPECT_TRUE(results[0].converged());
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status, bvc::robust::RunStatus::kBudgetExhausted);
      EXPECT_TRUE(results[i].profile.empty());
    }
  }
}

}  // namespace
