// Simulator validation: the event-driven network simulator against
// closed-form predictions, plus a scale probe.
//
// 1. Race/orphan validation. With miners on a direct mesh, a block found by
//    miner i is orphan-raced exactly when another miner finds within i's
//    propagation window tau_i (the receiver's latency + transfer time).
//    Finds are Poisson, so the per-find race probability is the classic
//    1 - exp(-lambda_other * tau): the bench sweeps the latency and compares
//    the measured orphan rate (mean +/- 95% CI over --replicas independent
//    replicas) against that prediction.
// 2. Split/duration validation. Heterogeneous powers: miner i's share of
//    mined blocks must match its power p_i (multinomial), and the total
//    simulated duration must match blocks * interval (sum of exponentials).
// 3. Scale probe. A generated random topology with --nodes nodes (default
//    1200) gossips --scale-blocks blocks under a RunControl wall-clock
//    budget, demonstrating that thousand-node relay runs fit the budget.
//
// Exit code 1 if any prediction deviates by more than the tolerance or the
// scale run misses its budget, so scripts can gate on it; 2 on a usage
// error.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "robust/run_control.hpp"
#include "sim/network_sim.hpp"
#include "sim/replicas.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bvc;

/// Measured-vs-predicted gate: within 3 CI half-widths, with an absolute
/// floor so near-zero cells do not demand impossible precision.
bool within_tolerance(double measured, double predicted, double ci95_half) {
  const double tolerance = std::max(3.0 * ci95_half, 2e-3);
  return std::abs(measured - predicted) <= tolerance;
}

std::string verdict(bool ok) { return ok ? "ok" : "DEVIATES"; }

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bench_sim_validation",
                         "Event-driven simulator vs closed-form predictions");
  bench::add_standard_bench_args(parser);
  bench::add_csv_args(parser);
  parser.add({
      {"blocks", util::ArgType::kLong, "N", "blocks per replica", "4000"},
      {"replicas", util::ArgType::kLong, "N",
       "independent replicas per cell", "8"},
      {"seed", util::ArgType::kLong, "N", "base simulation seed", "2026"},
      {"nodes", util::ArgType::kLong, "N",
       "topology size of the scale probe", "1200"},
      {"scale-blocks", util::ArgType::kLong, "N",
       "blocks gossiped in the scale probe", "500"},
      {"scale-wall-clock-ms", util::ArgType::kLong, "MS",
       "wall-clock budget of the scale probe", "30000"},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);
  bench::ObsSession obs(args);
  const auto blocks = static_cast<std::uint64_t>(args.get_long("blocks", 4000));
  const auto replicas =
      static_cast<std::size_t>(args.get_long("replicas", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 2026));
  if (blocks == 0 || replicas == 0) {
    std::fprintf(stderr, "error: --blocks and --replicas must be positive\n");
    return 2;
  }

  const auto run_set = [&](const sim::NetworkConfig& config) {
    sim::ReplicaOptions options;
    options.replicas = replicas;
    options.blocks = blocks;
    options.seed = seed;
    options.batch = bench::batch_config_from_args(args);
    return sim::run_replicas(config, options);
  };

  bool all_ok = true;
  const double interval = 600.0;

  // ---- 1. Orphan rate vs 1 - exp(-lambda_other * tau) --------------------
  std::printf(
      "Simulator validation — measured vs closed-form predictions\n"
      "(%llu blocks x %zu replicas per cell, base seed %llu)\n\n"
      "Race validation: two equal miners, negligible transfer time, so a\n"
      "find is raced iff the other miner finds within the latency window.\n\n",
      static_cast<unsigned long long>(blocks), replicas,
      static_cast<unsigned long long>(seed));

  bench::CsvSink csv = bench::open_csv(
      args, {"latency_s", "predicted_orphan_rate", "measured_orphan_rate",
             "ci95_half", "verdict"});

  TextTable race({"latency", "predicted", "measured (±95% CI)", "verdict"});
  for (const double latency : {2.0, 5.0, 15.0, 30.0, 60.0}) {
    sim::NetworkConfig config;
    for (int i = 0; i < 2; ++i) {
      sim::NetMiner miner;
      miner.name = std::string(1, static_cast<char>('a' + i));
      miner.power = 0.5;
      miner.rule.eb = 32 * chain::kMegabyte;
      miner.rule.mg = 32 * chain::kMegabyte;
      miner.block_size = 1000;   // transfer time 1 us: tau == latency
      miner.bandwidth = 1e9;
      miner.latency = latency;
      config.miners.push_back(std::move(miner));
    }
    const sim::ReplicaSetResult set = run_set(config);
    bench::require_solved(set.report.status,
                          "race cell tau=" + format_fixed(latency, 0),
                          /*fatal=*/false);
    // Per find by either miner, the other's find process has rate
    // 0.5/interval, so a height is contested with probability
    // q = 1 - exp(-lambda_other * tau). A contested height yields one
    // orphan but also one extra block in the denominator: rate q/(1+q).
    const double q = 1.0 - std::exp(-0.5 * latency / interval);
    const double predicted = q / (1.0 + q);
    const bool ok = within_tolerance(set.orphan_rate.mean, predicted,
                                     set.orphan_rate.ci95_half);
    all_ok = all_ok && ok;
    race.add_row({format_fixed(latency, 0) + " s", format_percent(predicted),
                  format_percent(set.orphan_rate.mean) + " ±" +
                      format_fixed(set.orphan_rate.ci95_half * 100.0, 2),
                  verdict(ok)});
    csv.row({format_fixed(latency, 1), format_fixed(predicted, 6),
             format_fixed(set.orphan_rate.mean, 6),
             format_fixed(set.orphan_rate.ci95_half, 6), verdict(ok)});
  }
  std::printf("%s\n", race.to_string().c_str());

  // ---- 2. Mining split and duration ---------------------------------------
  std::printf(
      "Split/duration validation: heterogeneous powers 0.5/0.3/0.2 — each\n"
      "miner's mined share must track its power, and the total duration\n"
      "must track blocks x interval.\n\n");
  sim::NetworkConfig hetero;
  {
    const double powers[] = {0.5, 0.3, 0.2};
    for (int i = 0; i < 3; ++i) {
      sim::NetMiner miner;
      miner.name = "m" + std::to_string(i);
      miner.power = powers[i];
      miner.rule.eb = 32 * chain::kMegabyte;
      miner.rule.mg = 32 * chain::kMegabyte;
      miner.block_size = 1000;
      miner.bandwidth = 1e9;
      miner.latency = 1.0;
      hetero.miners.push_back(std::move(miner));
    }
  }
  const sim::ReplicaSetResult hetero_set = run_set(hetero);
  bench::require_solved(hetero_set.report.status, "split cell",
                        /*fatal=*/false);

  TextTable split({"quantity", "predicted", "measured (mean over replicas)",
                   "verdict"});
  const double total_blocks = static_cast<double>(blocks);
  for (std::size_t m = 0; m < hetero.miners.size(); ++m) {
    double sum = 0.0;
    std::size_t count = 0;
    for (const sim::NetworkResult& replica : hetero_set.replicas) {
      if (replica.status == robust::RunStatus::kConverged &&
          replica.blocks_mined > 0) {
        sum += static_cast<double>(replica.mined_per_miner[m]) / total_blocks;
        ++count;
      }
    }
    const double measured = count == 0 ? 0.0 : sum / count;
    const double p = hetero.miners[m].power;
    // Multinomial share stderr per replica, shrunk by the replica count.
    const double stderr_share =
        std::sqrt(p * (1.0 - p) / total_blocks /
                  std::max<std::size_t>(count, 1));
    const bool ok = within_tolerance(measured, p, 1.96 * stderr_share);
    all_ok = all_ok && ok;
    split.add_row({"mined share " + hetero.miners[m].name,
                   format_percent(p, 0), format_percent(measured),
                   verdict(ok)});
  }
  {
    const double predicted = total_blocks * interval;
    // Duration is a sum of `blocks` exponential inter-find times (plus a
    // propagation-delay-sized drain tail).
    const double stderr_duration =
        interval * std::sqrt(total_blocks) /
        std::sqrt(static_cast<double>(
            std::max<std::size_t>(hetero_set.duration.count, 1)));
    const bool ok =
        std::abs(hetero_set.duration.mean - predicted) <=
        3.0 * 1.96 * stderr_duration + 120.0;
    all_ok = all_ok && ok;
    split.add_row({"duration", format_fixed(predicted, 0) + " s",
                   format_fixed(hetero_set.duration.mean, 0) + " s ±" +
                       format_fixed(hetero_set.duration.ci95_half, 0),
                   verdict(ok)});
  }
  std::printf("%s\n", split.to_string().c_str());

  // ---- 3. Thousand-node scale probe --------------------------------------
  const auto nodes = static_cast<std::size_t>(args.get_long("nodes", 1200));
  const auto scale_blocks =
      static_cast<std::uint64_t>(args.get_long("scale-blocks", 500));
  const double scale_budget_seconds =
      static_cast<double>(args.get_long("scale-wall-clock-ms", 30'000)) * 1e-3;
  std::printf(
      "Scale probe: %zu-node random gossip topology, %llu blocks, "
      "%.1f s wall-clock budget.\n",
      nodes, static_cast<unsigned long long>(scale_blocks),
      scale_budget_seconds);

  sim::NetworkConfig scale;
  {
    const double powers[] = {0.3, 0.25, 0.2, 0.15, 0.1};
    for (int i = 0; i < 5; ++i) {
      sim::NetMiner miner;
      miner.name = "m" + std::to_string(i);
      miner.power = powers[i];
      miner.rule.eb = 32 * chain::kMegabyte;
      miner.rule.mg = 32 * chain::kMegabyte;
      miner.block_size = chain::kMegabyte;
      miner.bandwidth = 1e6;
      miner.latency = 0.1;
      scale.miners.push_back(std::move(miner));
    }
    sim::RandomTopologyConfig graph;
    graph.nodes = nodes;
    graph.extra_degree = 2;
    graph.seed = seed;
    scale.topology = sim::random_topology(graph);
    for (std::size_t m = 0; m < scale.miners.size(); ++m) {
      scale.miner_nodes.push_back(
          static_cast<std::uint32_t>(m * (nodes / scale.miners.size())));
    }
    scale.relay.compact = true;
  }
  robust::RunControl scale_control;
  scale_control.budget.wall_clock_seconds = scale_budget_seconds;

  const sim::NetworkSimulation simulation(scale);
  Rng rng(seed);
  const auto start = std::chrono::steady_clock::now();
  const sim::NetworkResult scale_result =
      simulation.run(scale_blocks, rng, scale_control);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const bool scale_ok =
      scale_result.status == robust::RunStatus::kConverged &&
      elapsed <= scale_budget_seconds;
  all_ok = all_ok && scale_ok;
  std::printf(
      "  status %s, %.2f s elapsed, %llu gossip copies relayed, orphan "
      "rate %s -> %s\n\n",
      robust::to_string(scale_result.status).data(), elapsed,
      static_cast<unsigned long long>(scale_result.relayed_messages),
      format_percent(scale_result.orphan_rate()).c_str(),
      verdict(scale_ok).c_str());

  std::printf(all_ok
                  ? "VALIDATION_OK: every measurement matches its "
                    "closed-form prediction.\n"
                  : "VALIDATION_FAILED: at least one cell deviates (see "
                    "tables above).\n");
  return all_ok ? 0 : 1;
}
