// Example: will "emergent consensus" emerge for YOUR network? (Sect. 5)
//
// Feed the tool a set of miner groups — power share and maximum profitable
// block size — and it runs both of the paper's games:
//
//   $ ./emergent_consensus --groups 10:1,20:2,30:4,40:8
//
// where each `power:mpb` pair is a group (power in %, MPB in MB).
// It reports the EB-choosing equilibrium, plays the block size increasing
// game round by round, and cross-checks the outcome with a fork-rate
// simulation of the surviving network.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "games/block_size_game.hpp"
#include "games/eb_choosing.hpp"
#include "sim/fork_simulation.hpp"
#include "util/arg_spec.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bvc;

std::vector<games::MinerGroup> parse_groups(const std::string& text) {
  std::vector<games::MinerGroup> groups;
  std::istringstream in(text);
  std::string token;
  double total = 0.0;
  while (std::getline(in, token, ',')) {
    const auto colon = token.find(':');
    BVC_REQUIRE(colon != std::string::npos,
                "--groups must look like 10:1,20:2,...");
    games::MinerGroup group;
    group.power = std::stod(token.substr(0, colon)) / 100.0;
    group.mpb = std::stod(token.substr(colon + 1));
    groups.push_back(group);
    total += group.power;
  }
  BVC_REQUIRE(std::abs(total - 1.0) < 1e-6, "powers must sum to 100");
  return groups;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser(
      "emergent_consensus",
      "play the paper's two block size games on a set of miner groups");
  parser.add({
      {"groups", util::ArgType::kString, "P:MB,...",
       "miner groups as power%:max_profitable_mb pairs",
       "10:1,20:2,30:4,40:8"},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);
  const std::vector<games::MinerGroup> groups =
      parse_groups(args.get_string("groups", "10:1,20:2,30:4,40:8"));

  std::printf("Emergent-consensus check for %zu miner groups\n\n",
              groups.size());

  // ---- Game 1: EB choosing (Assumption 1 world) ---------------------------
  {
    std::vector<double> powers;
    bool all_minority = true;
    for (const auto& group : groups) {
      powers.push_back(group.power);
      all_minority = all_minority && group.power < 0.5;
    }
    if (groups.size() >= 2 && all_minority) {
      games::EbChoosingGame game(powers, 2);
      Rng rng(5);
      std::vector<std::size_t> start(powers.size());
      for (std::size_t i = 0; i < start.size(); ++i) {
        start[i] = i % 2;
      }
      const auto dynamics = game.best_response_dynamics(start, rng);
      std::printf(
          "Game 1 (any EB is profitable): best-response dynamics from a\n"
          "split profile converge to consensus in %zu rounds — Result 4:\n"
          "an all-same-EB equilibrium exists, BUT it is fragile (below).\n\n",
          dynamics.rounds());
    } else {
      std::printf(
          "Game 1 skipped: a group holds >= 50%% power (the EB game assumes "
          "minorities).\n\n");
    }
  }

  // ---- Game 2: block size increasing (Assumption 2 world) -----------------
  const games::BlockSizeIncreasingGame game(groups);
  const auto outcome = game.play();
  std::printf("Game 2 (every group has a maximum profitable block size):\n%s",
              game.describe(outcome).c_str());
  if (game.emergent_consensus_holds()) {
    std::printf(
        "\n=> the initial groups form a stable set: no one is squeezed out\n"
        "   (but any capacity change can re-trigger the game).\n\n");
  } else {
    double power_out = 0.0;
    for (std::size_t i = 0; i < outcome.surviving_from; ++i) {
      power_out += groups[i].power;
    }
    std::printf(
        "\n=> emergent consensus FAILS: %zu group(s) holding %s of mining\n"
        "   power are forced out of business (Result 5).\n\n",
        outcome.surviving_from, format_percent(power_out, 1).c_str());
  }

  // ---- What the surviving network looks like on the wire ------------------
  // The squeezed-out groups' nodes cannot handle the new block size: model
  // them as still-running small-EB nodes and measure the forks they see.
  sim::ForkSimConfig config;
  const double final_mg = outcome.final_block_size;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    sim::SimMiner miner;
    miner.name = "group" + std::to_string(i + 1);
    miner.power = groups[i].power;
    miner.rule.eb = static_cast<chain::ByteSize>(groups[i].mpb *
                                                 chain::kMegabyte);
    miner.rule.ad = 6;
    const double mg = i >= outcome.surviving_from ? final_mg : groups[i].mpb;
    miner.rule.mg = static_cast<chain::ByteSize>(mg * chain::kMegabyte);
    miner.block_size = miner.rule.mg;
    config.miners.push_back(miner);
  }
  sim::ForkSimulation simulation(config);
  Rng rng(99);
  const sim::ForkSimResult forks = simulation.run(20'000, rng);
  std::printf(
      "Fork simulation of that end state (20k blocks, zero delay):\n"
      "  fork episodes: %llu, orphaned blocks: %llu (%.2f%%), deepest "
      "fork: %u\n",
      static_cast<unsigned long long>(forks.fork_episodes),
      static_cast<unsigned long long>(forks.orphaned_blocks),
      100.0 * forks.orphan_rate(), forks.max_fork_depth);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    std::printf("  group %zu: locked %llu, orphaned %llu\n", i + 1,
                static_cast<unsigned long long>(forks.locked_per_miner[i]),
                static_cast<unsigned long long>(
                    forks.orphaned_per_miner[i]));
  }
  return 0;
}
