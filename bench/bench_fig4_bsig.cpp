// Regenerates Figure 4: the block size increasing game on miner groups
// m = (10%, 20%, 30%, 40%) — round 1 raises the block size and squeezes
// group 1 out; in round 2 groups 2 and 3 vote against (if group 2 left,
// group 4 could squeeze group 3 out too) and the game terminates.
#include <cstdio>

#include "bench_common.hpp"
#include "games/block_size_game.hpp"

int main(int argc, char** argv) {
  using namespace bvc::games;
  bvc::util::ArgParser parser("bench_fig4_bsig", "Regenerate Figure 4: the block size increasing game");
  bvc::bench::add_standard_bench_args(parser);
  const bvc::util::ParsedArgs args = parser.parse(argc, argv);
  bvc::bench::ObsSession obs(args);

  const std::vector<MinerGroup> groups = {
      {0.10, 1.0}, {0.20, 2.0}, {0.30, 4.0}, {0.40, 8.0}};
  const BlockSizeIncreasingGame game(groups);

  std::printf(
      "Figure 4 — block size increasing game, m = (10, 20, 30, 40)%%\n"
      "MPBs = (1, 2, 4, 8) MB\n\n");
  const auto outcome = game.play(bvc::bench::run_control_from_args(args));
  bvc::bench::require_solved(outcome, "block size increasing game playout",
                             /*fatal=*/false);
  std::printf("%s\n", game.describe(outcome).c_str());

  std::printf("stable suffixes: ");
  for (std::size_t j = 0; j < game.num_groups(); ++j) {
    std::printf("{%zu..%zu}:%s ", j + 1, game.num_groups(),
                game.is_stable_suffix(j) ? "stable" : "unstable");
  }
  std::printf("\n\nutilities: ");
  for (std::size_t i = 0; i < outcome.utilities.size(); ++i) {
    std::printf("group %zu -> %.3f  ", i + 1, outcome.utilities[i]);
  }
  std::printf(
      "\n\nReading (Analytical Result 5): group 1 is forced out of business"
      "\neven though 60%% of the power would lose from raising further —\n"
      "emergent consensus fails unless the initial groups already form a\n"
      "stable set.\n");
  return 0;
}
