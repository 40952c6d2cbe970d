// Quantifies Analytical Results 4 and 5 beyond the single Figure 4
// instance:
//
//  * EB choosing game — verifies that all-same-EB profiles are Nash
//    equilibria across random power distributions and that best-response
//    dynamics from random splits always converge to consensus (Result 4 /
//    the Sect. 6.1 "follow the majority" observation).
//
//  * Block size increasing game — sweeps random mining-power distributions
//    and reports how often emergent consensus survives (no group squeezed
//    out), how many groups are squeezed out on average, and how much mining
//    power exits — the paper's Result 5 claim that consensus fails "for a
//    large space of mining power and block size preference distributions".
//
// Both sweeps fan out through games/game_batch.hpp under the shared
// --threads / --wall-clock-ms / --max-ticks flags: job lists (including
// per-trial RNG seeds) are generated serially, so the reported statistics
// are independent of the thread count.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "games/game_batch.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace bvc;
using namespace bvc::games;

std::vector<double> random_powers(Rng& rng, std::size_t n, double cap) {
  for (;;) {
    std::vector<double> powers(n);
    double total = 0.0;
    for (double& p : powers) {
      p = 0.02 + rng.next_double();
      total += p;
    }
    bool ok = true;
    for (double& p : powers) {
      p /= total;
      ok = ok && p < cap;
    }
    if (ok) {
      return powers;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bench_games", "EB-choosing and block-size-increasing games at scale");
  bench::add_standard_bench_args(parser);
  const util::ParsedArgs args = parser.parse(argc, argv);
  bench::ObsSession obs(args);
  const mdp::BatchConfig batch = bench::batch_config_from_args(args);
  Rng rng(20171213);

  // ---- Result 4: EB choosing game ----------------------------------------
  std::printf("EB choosing game (Analytical Result 4)\n");
  std::size_t equilibria_checked = 0;
  const std::size_t kTrials = 500;
  std::vector<EbDynamicsJob> dynamics_jobs;
  dynamics_jobs.reserve(kTrials);
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const std::size_t n = 3 + rng.next_below(6);
    EbDynamicsJob job;
    job.power = random_powers(rng, n, 0.5);
    job.num_values = 2 + rng.next_below(3);
    const EbChoosingGame game(job.power, job.num_values);
    // All-same profiles are NEs (checked inline; the check is cheap).
    bool all_ne = true;
    for (std::size_t v = 0; v < game.num_values(); ++v) {
      all_ne = all_ne &&
               game.is_nash_equilibrium(std::vector<std::size_t>(n, v));
    }
    equilibria_checked += all_ne ? 1 : 0;
    // Dynamics converge to consensus (batched; private seed per trial).
    job.start.resize(n);
    for (auto& choice : job.start) {
      choice = rng.next_below(game.num_values());
    }
    job.seed = rng.next_u64();
    job.max_rounds = 500;
    dynamics_jobs.push_back(std::move(job));
  }
  std::size_t dynamics_converged = 0;
  std::size_t dynamics_skipped = 0;
  for (const auto& result : best_response_dynamics_batch(dynamics_jobs, batch)) {
    if (!result.converged()) {
      ++dynamics_skipped;
      continue;
    }
    bool consensus = true;
    for (const std::size_t choice : result.profile) {
      consensus = consensus && choice == result.profile.front();
    }
    dynamics_converged += consensus ? 1 : 0;
  }
  std::printf(
      "  %zu/%zu random games: every all-same-EB profile is a Nash "
      "equilibrium\n"
      "  %zu/%zu random starts: best-response dynamics reach EB consensus\n",
      equilibria_checked, kTrials, dynamics_converged, kTrials);
  if (dynamics_skipped > 0) {
    std::printf("  (%zu trials stopped early by the run budget)\n",
                dynamics_skipped);
  }
  std::printf("\n");

  // ---- Result 5: block size increasing game ------------------------------
  std::printf("Block size increasing game (Analytical Result 5)\n");
  TextTable table({"groups", "P[consensus holds]", "avg groups squeezed",
                   "avg power squeezed"});
  for (const std::size_t n : {2u, 3u, 4u, 5u, 6u, 8u}) {
    const std::size_t kGameTrials = 2000;
    std::vector<BlockSizeGameJob> game_jobs;
    game_jobs.reserve(kGameTrials);
    for (std::size_t trial = 0; trial < kGameTrials; ++trial) {
      const std::vector<double> powers = random_powers(rng, n, 1.0);
      BlockSizeGameJob job;
      double mpb = 1.0;
      for (const double p : powers) {
        job.groups.push_back(MinerGroup{p, mpb});
        mpb *= 2.0;
      }
      game_jobs.push_back(std::move(job));
    }
    std::size_t holds = 0;
    std::size_t played = 0;
    RunningStats squeezed_groups;
    RunningStats squeezed_power;
    const auto outcomes = play_block_size_batch(game_jobs, batch);
    for (std::size_t idx = 0; idx < outcomes.size(); ++idx) {
      const auto& outcome = outcomes[idx];
      if (!outcome.converged()) {
        continue;  // stopped by the run budget; excluded from the stats
      }
      ++played;
      const std::size_t t = outcome.surviving_from;
      holds += t == 0 ? 1 : 0;
      squeezed_groups.add(static_cast<double>(t));
      double power_out = 0.0;
      for (std::size_t i = 0; i < t; ++i) {
        power_out += game_jobs[idx].groups[i].power;
      }
      squeezed_power.add(power_out);
    }
    table.add_row({std::to_string(n),
                   format_percent(static_cast<double>(holds) /
                                  static_cast<double>(
                                      played > 0 ? played : std::size_t{1})),
                   format_fixed(squeezed_groups.mean(), 2),
                   format_percent(squeezed_power.mean())});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: as preference diversity grows, emergent consensus survives\n"
      "in an ever-smaller fraction of power distributions; large-MPB\n"
      "coalitions squeeze out smaller miners (Result 5), and any change in\n"
      "capacities can re-trigger the game (Sect. 5.2.3).\n");
  return 0;
}
