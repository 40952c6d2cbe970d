// Propagation substrate study (Sect. 2.3 / Sect. 6.4): the relationship
// between block size, network capacity and orphan rate that gives every
// miner a maximum profitable block size — the premise of the block size
// increasing game. Uses the continuous-time network simulator and compares
// the measured orphan rates with the analytic fee-market model.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "games/fee_market.hpp"
#include "sim/network_sim.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {
using namespace bvc;
using chain::kMegabyte;

sim::NetMiner make_miner(std::string name, double power,
                         chain::ByteSize size, double bandwidth) {
  sim::NetMiner miner;
  miner.name = std::move(name);
  miner.power = power;
  miner.rule.eb = 32 * kMegabyte;
  miner.rule.mg = 32 * kMegabyte;
  miner.block_size = size;
  miner.bandwidth = bandwidth;
  miner.latency = 2.0;
  return miner;
}
}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bench_propagation", "Orphan rate vs block size and network capacity (Sect. 6.4)");
  bench::add_obs_args(parser);
  const util::ParsedArgs args = parser.parse(argc, argv);
  bench::ObsSession obs(args);
  std::printf(
      "Propagation study — orphan rate vs block size and bandwidth\n"
      "(5 equal miners, 600 s interval, 2 s latency, 30k blocks per "
      "cell)\n\n");

  TextTable table({"block size", "200 kB/s", "1 MB/s", "5 MB/s",
                   "analytic survival loss @1MB/s"});
  const double bandwidths[] = {2e5, 1e6, 5e6};
  for (const chain::ByteSize size :
       {kMegabyte, 2 * kMegabyte, 4 * kMegabyte, 8 * kMegabyte,
        16 * kMegabyte}) {
    std::vector<std::string> row = {
        format_fixed(static_cast<double>(size) / kMegabyte, 0) + " MB"};
    for (const double bandwidth : bandwidths) {
      sim::NetworkConfig config;
      for (int i = 0; i < 5; ++i) {
        config.miners.push_back(make_miner(
            std::string("m").append(std::to_string(i)), 0.2, size, bandwidth));
      }
      sim::NetworkSimulation simulation(config);
      Rng rng(size + static_cast<std::uint64_t>(bandwidth));
      const sim::NetworkResult result = simulation.run(30'000, rng);
      row.push_back(format_percent(result.orphan_rate()));
      std::printf(".");
      std::fflush(stdout);
    }
    // Analytic: probability a rival block appears during propagation.
    games::FeeMarketParams analytic;
    analytic.bandwidth = 1e6;
    analytic.latency = 2.0;
    analytic.power = 0.2;
    const double tau = analytic.latency +
                       static_cast<double>(size) / analytic.bandwidth;
    const double loss =
        1.0 - std::exp(-tau * (1.0 - analytic.power) / 600.0);
    row.push_back(format_percent(loss));
    table.add_row(std::move(row));
  }
  std::printf("\n%s\n", table.to_string().c_str());

  // Derived MPBs across capacities: the heterogeneity that drives Sect. 5.2.
  std::printf("Derived block size preferences (fee market, Sect. 2.3):\n");
  TextTable mpb_table({"bandwidth", "profit-maximizing size",
                       "maximum profitable size (MPB)"});
  for (const double bandwidth : {1e5, 5e5, 1e6, 5e6, 2e7}) {
    games::FeeMarketParams params;
    params.bandwidth = bandwidth;
    params.power = 0.2;
    mpb_table.add_row(
        {format_fixed(bandwidth / 1e6, 2) + " MB/s",
         format_fixed(games::optimal_block_size(params) / kMegabyte, 2) +
             " MB",
         format_fixed(
             games::maximum_profitable_size(params) / kMegabyte, 1) +
             " MB"});
  }
  std::printf("%s\n", mpb_table.to_string().c_str());
  std::printf(
      "Reading: orphan risk rises with block size and falls with capacity,\n"
      "so miners' profitable block sizes genuinely differ — the premise of\n"
      "the block size increasing game, and the reason BU's miner-decided\n"
      "limit squeezes out the slow (Result 5).\n");
  return 0;
}
