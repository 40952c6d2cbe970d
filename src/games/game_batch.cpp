#include "games/game_batch.hpp"

#include "util/rng.hpp"

namespace bvc::games {

std::vector<BlockSizeIncreasingGame::Outcome> play_block_size_batch(
    std::span<const BlockSizeGameJob> jobs, const mdp::BatchConfig& batch) {
  std::vector<BlockSizeIncreasingGame::Outcome> results(jobs.size());
  (void)mdp::run_batch(
      jobs.size(), batch,
      [&](std::size_t i, const robust::RunControl& control) {
        const BlockSizeIncreasingGame game(jobs[i].groups);
        results[i] = game.play(control);
        return results[i].status;
      },
      [&](std::size_t i, robust::RunStatus status) {
        results[i] = BlockSizeIncreasingGame::Outcome{};
        results[i].status = status;
      });
  return results;
}

std::vector<EbChoosingGame::DynamicsResult> best_response_dynamics_batch(
    std::span<const EbDynamicsJob> jobs, const mdp::BatchConfig& batch) {
  std::vector<EbChoosingGame::DynamicsResult> results(jobs.size());
  (void)mdp::run_batch(
      jobs.size(), batch,
      [&](std::size_t i, const robust::RunControl& control) {
        const EbChoosingGame game(jobs[i].power, jobs[i].num_values);
        Rng rng(jobs[i].seed);
        results[i] = game.best_response_dynamics(jobs[i].start, rng, control,
                                                 jobs[i].max_rounds);
        return results[i].status;
      },
      [&](std::size_t i, robust::RunStatus status) {
        results[i] = EbChoosingGame::DynamicsResult{};
        results[i].status = status;
      });
  return results;
}

}  // namespace bvc::games
