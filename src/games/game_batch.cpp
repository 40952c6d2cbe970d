#include "games/game_batch.hpp"

#include "util/rng.hpp"

namespace bvc::games {

std::vector<BlockSizeIncreasingGame::Outcome> play_block_size_batch(
    std::span<const BlockSizeGameJob> jobs, const mdp::BatchConfig& batch) {
  return mdp::run_cells<BlockSizeIncreasingGame::Outcome>(
             jobs.size(), batch, nullptr,
             [&](std::size_t i, const robust::RunControl& control) {
               const BlockSizeIncreasingGame game(jobs[i].groups);
               return game.play(control);
             })
      .results;
}

std::vector<EbChoosingGame::DynamicsResult> best_response_dynamics_batch(
    std::span<const EbDynamicsJob> jobs, const mdp::BatchConfig& batch) {
  return mdp::run_cells<EbChoosingGame::DynamicsResult>(
             jobs.size(), batch, nullptr,
             [&](std::size_t i, const robust::RunControl& control) {
               const EbChoosingGame game(jobs[i].power, jobs[i].num_values);
               Rng rng(jobs[i].seed);
               return game.best_response_dynamics(jobs[i].start, rng, control,
                                                  jobs[i].max_rounds);
             })
      .results;
}

}  // namespace bvc::games
