// Batched game playouts through mdp::run_cells: Monte-Carlo sweeps over
// many game instances (bench_games runs thousands) fan out across the
// shared thread pool under one BatchConfig budget, with the same
// input-order / thread-count-independence guarantees as the MDP batches.
//
// Each job carries its own construction parameters and (for the stochastic
// best-response dynamics) its own RNG seed, so results are a pure function
// of the job list — never of scheduling.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "games/block_size_game.hpp"
#include "games/eb_choosing.hpp"
#include "mdp/batch.hpp"

namespace bvc::games {

/// One block size increasing game instance. Each playout runs under the
/// batch's shared budget (set budgets on BatchConfig::control).
struct BlockSizeGameJob {
  std::vector<MinerGroup> groups;
};

/// Plays every job across the pool. Items skipped by the shared budget
/// carry status kBudgetExhausted / kCancelled and empty traces.
[[nodiscard]] std::vector<BlockSizeIncreasingGame::Outcome>
play_block_size_batch(std::span<const BlockSizeGameJob> jobs,
                      const mdp::BatchConfig& batch = {});

/// One best-response-dynamics run: game construction parameters, a start
/// profile, and a private RNG seed. It runs under the batch's shared
/// budget, as above.
struct EbDynamicsJob {
  std::vector<double> power;
  std::size_t num_values = 2;
  std::vector<std::size_t> start;
  std::uint64_t seed = 0;
  std::size_t max_rounds = 1000;
};

/// Runs every dynamics job across the pool (each with Rng(job.seed)).
[[nodiscard]] std::vector<EbChoosingGame::DynamicsResult>
best_response_dynamics_batch(std::span<const EbDynamicsJob> jobs,
                             const mdp::BatchConfig& batch = {});

}  // namespace bvc::games
