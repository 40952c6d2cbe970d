// Workload netsim-1k: the bench_degraded_network study network (5 equal
// miners, 8 MB blocks) gossiping over a seeded 1000-node random topology,
// run through sim::run_replicas as one fault-free cell and one cell with 5%
// message drop, 4 replicas per cell on one thread. No solver code runs.
// One thread, because a run with as many threads as the host has cores
// measures the host's scheduler: on a shared 4-core host the same campaign
// at 4 threads spread 15-27% from run to run. Each campaign of a run draws
// its own topology, so a run's figures span several graphs instead of
// resting on one.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chain/types.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/network_sim.hpp"
#include "sim/replicas.hpp"
#include "sim/topology.hpp"
#include "trace_fold.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace bvc;

constexpr std::size_t kNodes = 1000;
constexpr std::size_t kReplicas = 4;
constexpr int kThreads = 1;
/// Blocks per replica: 2 cells x 4 replicas x 500 = 4,000 blocks a campaign,
/// short enough for a run to hold a dozen campaigns.
constexpr std::uint64_t kBlocks = 500;
constexpr double kDropRate = 0.05;
/// Wall seconds of one campaign on a 4-core x86 host; sizes the run.
constexpr double kCampaignEstimateSeconds = 2.5;

/// Campaigns of a run: as many as fit in --seconds (one when traced).
int campaign_count(const RunOptions& options) {
  return options.trace ? 1
                       : std::max(1, static_cast<int>(options.seconds /
                                                      kCampaignEstimateSeconds));
}

/// The seeds one workload seed expands to.
struct Seeds {
  std::uint64_t topology = 0;
  std::uint64_t faults = 0;
  std::uint64_t replicas = 0;
};

/// The seeds of campaign `campaign` of a run with seed `workload_seed`.
Seeds derive_seeds(std::uint64_t workload_seed, std::uint64_t campaign) {
  std::uint64_t state = workload_seed ^ 0x6E65'7473'696D'316BULL;
  for (std::uint64_t skip = 0; skip < 3 * campaign; ++skip) {
    (void)splitmix64(state);
  }
  Seeds seeds;
  seeds.topology = splitmix64(state);
  seeds.faults = splitmix64(state);
  seeds.replicas = splitmix64(state);
  return seeds;
}

/// One campaign cell: the study network with its fault plan.
struct Cell {
  const char* label;
  sim::NetworkConfig config;
};

/// bench_degraded_network's make_network over `topology`.
sim::NetworkConfig study_network(const sim::Topology& topology) {
  sim::NetworkConfig config;
  for (int i = 0; i < 5; ++i) {
    sim::NetMiner miner;
    miner.name = "m";
    miner.name += std::to_string(i);
    miner.power = 0.2;
    miner.rule.eb = 32 * chain::kMegabyte;
    miner.rule.mg = 32 * chain::kMegabyte;
    miner.block_size = 8 * chain::kMegabyte;
    miner.bandwidth = 1e6;
    miner.latency = 2.0;
    config.miners.push_back(std::move(miner));
  }
  config.topology = topology;
  config.relay_rule = config.miners.front().rule;
  return config;
}

/// Builds the topology and both cells, constructing (and so validating)
/// each cell's simulation the way run_replicas does.
std::vector<Cell> build_cells(const Seeds& seeds) {
  sim::RandomTopologyConfig graph;
  graph.nodes = kNodes;
  graph.seed = seeds.topology;
  const sim::Topology topology = sim::random_topology(graph);
  std::vector<Cell> cells;
  cells.push_back({"fault-free", study_network(topology)});
  cells.push_back({"drop-5%", study_network(topology)});
  cells.back().config.faults.seed = seeds.faults;
  cells.back().config.faults.link.drop_probability = kDropRate;
  for (const Cell& cell : cells) {
    const sim::NetworkSimulation simulation(cell.config);
    (void)simulation;
  }
  return cells;
}

/// Timings of one campaign (both cells).
struct Campaign {
  double wall_s = 0.0;
  std::vector<double> cell_s;  ///< one run_replicas call each
  std::uint64_t blocks = 0;
  std::uint64_t relayed = 0;
  std::size_t replicas = 0;
};

Campaign run_campaign(const std::vector<Cell>& cells, const Seeds& seeds,
                      std::uint64_t blocks, Outcome& outcome) {
  Campaign campaign;
  const Clock::time_point start = Clock::now();
  for (const Cell& cell : cells) {
    sim::ReplicaOptions options;
    options.replicas = kReplicas;
    options.blocks = blocks;
    options.seed = seeds.replicas;
    options.batch.threads = kThreads;
    const Clock::time_point cell_start = Clock::now();
    sim::ReplicaSetResult set;
    {
      obs::Span span("bench.sim.run_replicas", "perfbench");
      set = sim::run_replicas(cell.config, options);
    }
    campaign.cell_s.push_back(seconds_since(cell_start));
    outcome.attempt(set.replicas.size());
    for (std::size_t i = 0; i < set.replicas.size(); ++i) {
      const sim::NetworkResult& replica = set.replicas[i];
      campaign.blocks += replica.blocks_mined;
      campaign.relayed += replica.relayed_messages;
      ++campaign.replicas;
      if (replica.status != robust::RunStatus::kConverged ||
          replica.blocks_mined != blocks ||
          replica.canonical_length > replica.blocks_mined) {
        char message[96];
        std::snprintf(message, sizeof(message),
                      "netsim replica %zu of cell %s did not finish cleanly",
                      i, cell.label);
        outcome.fail(message);
      }
    }
  }
  campaign.wall_s = seconds_since(start);
  return campaign;
}

/// The fixed-seed reference: per-replica checkpoint records of a short
/// campaign, one line per replica, `<cell> <replica> <status> name=value...`.
std::string reference_text() {
  const Seeds seeds = derive_seeds(0, 0);
  std::ostringstream out;
  for (const Cell& cell : build_cells(seeds)) {
    sim::ReplicaOptions options;
    options.replicas = 2;
    options.blocks = 200;
    options.seed = seeds.replicas;
    options.batch.threads = kThreads;
    const sim::ReplicaSetResult set = sim::run_replicas(cell.config, options);
    for (std::size_t i = 0; i < set.replicas.size(); ++i) {
      const robust::CheckpointRecord record =
          sim::sim_record("replica", set.replicas[i]);
      out << cell.label << ' ' << i << ' ' << robust::to_string(record.status);
      for (const auto& [name, value] : record.values) {
        char text[64];
        std::snprintf(text, sizeof(text), "%.17g", value);
        out << ' ' << name << '=' << text;
      }
      out << '\n';
    }
  }
  return out.str();
}

void check_reference(const RunOptions& options, Outcome& outcome) {
  const std::string path = options.reference_dir + "/netsim.txt";
  std::ifstream in(path);
  std::stringstream stored;
  stored << in.rdbuf();
  outcome.attempt();
  if (!in || stored.str() != reference_text()) {
    outcome.fail("netsim fixed-seed replicas differ from " + path);
  }
}

}  // namespace

int print_netsim_reference() {
  std::fputs(reference_text().c_str(), stdout);
  return 0;
}

double netsim_setup(const RunOptions& options) {
  // The topology and cells of one campaign; the samples cycle over the
  // campaigns of the run.
  const int campaign = options.setup_sample % campaign_count(options);
  const Clock::time_point start = Clock::now();
  (void)build_cells(
      derive_seeds(options.seed, static_cast<std::uint64_t>(campaign)));
  return seconds_since(start);
}

void run_netsim(const RunOptions& options, Outcome& outcome) {
  const int campaigns = campaign_count(options);
  SetupSampler setup(options, outcome);
  std::vector<Seeds> seeds(campaigns);
  std::vector<std::vector<Cell>> cells(campaigns);
  for (int c = 0; c < campaigns; ++c) {
    seeds[c] = derive_seeds(options.seed, static_cast<std::uint64_t>(c));
    cells[c] = build_cells(seeds[c]);
  }

  if (!options.trace) {
    // Each metric is taken per campaign, and the run reports the campaign
    // at the better quartile: host noise only ever slows a campaign, and on
    // a shared host the middle campaign's speed follows the neighbours'
    // load, which shifts by a fifth from one minute to the next. Campaign c
    // runs pinned to CPU c (modulo their count), so a run samples every
    // CPU: left alone, the scheduler can keep the one thread on a CPU that
    // stays slow for the whole run.
    std::vector<double> walls;
    std::vector<double> cell_p50s;
    std::vector<double> record_p50s;
    std::vector<double> record_p99s;
    for (int c = 0; c < campaigns; ++c) {
      setup.before_unit(c, campaigns);
      Campaign campaign;
      {
        const CpuPin pin(c);
        campaign = run_campaign(cells[c], seeds[c], kBlocks, outcome);
      }
      walls.push_back(campaign.wall_s);
      cell_p50s.push_back(median(campaign.cell_s));
      std::vector<double> records;
      for (const double cell_s : campaign.cell_s) {
        // run_replicas hands back every replica of a cell at once.
        records.insert(records.end(), kReplicas, cell_s);
      }
      record_p50s.push_back(percentile(records, 0.50));
      record_p99s.push_back(percentile(records, 0.99));
    }
    setup.before_unit(campaigns, campaigns);
    outcome.set("setup_s", setup.fast_quartile_s());
    const double wall_s = percentile(walls, 0.25);
    outcome.set("wall_s", wall_s);
    outcome.set("cells_per_s",
                static_cast<double>(kReplicas * cells[0].size()) / wall_s);
    outcome.set("job_latency_p50_s", percentile(cell_p50s, 0.25));
    outcome.set("record_latency_p50_s", percentile(record_p50s, 0.25));
    outcome.set("record_latency_p99_s", percentile(record_p99s, 0.25));
    outcome.set("peak_rss_mb", peak_rss_mb());
    check_reference(options, outcome);
    return;
  }

  // Traced run: one untraced campaign as the overhead baseline, then the
  // same campaign traced, with metrics on.
  setup.before_unit(0, 1);
  const Campaign plain = run_campaign(cells[0], seeds[0], kBlocks, outcome);
  TracedWindow window(1 << 12);
  const Campaign traced = run_campaign(cells[0], seeds[0], kBlocks, outcome);
  window.stop();
  setup.before_unit(1, 1);

  const std::map<std::string, NameTotals> totals =
      totals_by_name(window.spans());
  std::vector<double> replica_s;
  for (const SpanEvent& span : window.spans()) {
    if (span.name == "sim.replica") {
      replica_s.push_back(span.duration_s());
    }
  }
  const obs::MetricsSnapshot snapshot = window.metrics();
  const double events =
      static_cast<double>(
          counter_or_zero(snapshot, "sim.engine.events_dispatched"));
  outcome.set("sim.topology_s", setup.median_s());
  outcome.set("sim.engine.events", events);
  outcome.set("sim.engine.events_per_s",
              events / std::max(1e-9, total_of(totals, "sim.replica")));
  outcome.set("sim.engine.queue_depth_peak",
              gauge_or_zero(snapshot, "sim.engine.queue_depth_peak"));
  outcome.set("sim.net.relayed_per_block",
              static_cast<double>(traced.relayed) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, traced.blocks)));
  outcome.set("sim.replica_s_p50", median(replica_s));
  outcome.set("sim_blocks_per_s",
              static_cast<double>(plain.blocks) / plain.wall_s);
  set_pool_metrics(outcome, snapshot, traced.wall_s, kThreads);
  outcome.set("obs.trace_overhead_share", traced.wall_s / plain.wall_s - 1.0);
  outcome.set("obs.trace.dropped_spans", window.dropped());
  check_reference(options, outcome);
}

}  // namespace perfbench
