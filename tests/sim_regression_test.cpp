// Fixed-seed regression vectors for the discrete-event simulation layer.
//
// These values were captured from the pre-engine (hand-rolled loop)
// simulators and must stay bit-identical: the EventEngine lowering preserves
// the legacy draw order, event ordering, and tie-breaking exactly, and the
// post-run `rng.next_u64()` probes pin the RNG stream position too. The
// first three relay-mode vectors were captured while every gossip copy was
// still queued and dispatched, so they also pin that leaving redundant
// copies out of the queue changes no result. Every relay vector also pins
// the events the engine dispatched and its peak queue depth, captured on
// the binary-heap engine with one prefix-state memo per node, so a queue
// or relay change that adds, drops or reorders an event shows up even
// when the results happen to agree.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bu/attack_analysis.hpp"
#include "obs/metrics.hpp"
#include "sim/attack_scenario.hpp"
#include "sim/network_sim.hpp"
#include "sim/timeline.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using namespace bvc::sim;

void expect_miner(const NetworkResult& result, std::size_t i,
                  std::uint64_t mined, std::uint64_t locked,
                  std::uint64_t orphaned) {
  EXPECT_EQ(result.mined_per_miner[i], mined) << "miner " << i;
  EXPECT_EQ(result.locked_per_miner[i], locked) << "miner " << i;
  EXPECT_EQ(result.orphaned_per_miner[i], orphaned) << "miner " << i;
}

TEST(SimRegression, NetworkHeterogeneousNoFaults) {
  NetworkConfig config;
  config.miners.push_back({"a", 0.3, {}, 1 * chain::kMegabyte, 1e6, 0.5});
  config.miners.push_back({"b", 0.5, {}, 8 * chain::kMegabyte, 2e5, 2.0});
  config.miners.push_back({"c", 0.2, {}, 4 * chain::kMegabyte, 5e5, 1.0});
  for (auto& m : config.miners) {
    m.rule.eb = 32 * chain::kMegabyte;
    m.rule.mg = 32 * chain::kMegabyte;
    m.rule.ad = 6;
  }
  NetworkSimulation net(config);
  Rng rng(123);
  const NetworkResult r = net.run(4000, rng);
  EXPECT_EQ(r.blocks_mined, 4000u);
  EXPECT_DOUBLE_EQ(r.duration, 2400121.5124724312);
  EXPECT_EQ(r.canonical_length, 3967u);
  EXPECT_EQ(r.orphaned_blocks, 33u);
  EXPECT_EQ(r.status, robust::RunStatus::kConverged);
  EXPECT_EQ(r.dropped_messages, 0u);
  EXPECT_EQ(r.duplicated_messages, 0u);
  EXPECT_EQ(r.deferred_deliveries, 0u);
  EXPECT_EQ(r.wasted_finds, 0u);
  expect_miner(r, 0, 1201, 1194, 7);
  expect_miner(r, 1, 1974, 1957, 17);
  expect_miner(r, 2, 825, 816, 9);
  EXPECT_EQ(rng.next_u64(), 5977496327026379970ull);
}

TEST(SimRegression, NetworkWithFaultPlan) {
  NetworkConfig config;
  config.miners.push_back({"a", 0.25, {}, 1 * chain::kMegabyte, 1e6, 0.5});
  config.miners.push_back({"b", 0.25, {}, 2 * chain::kMegabyte, 4e5, 1.5});
  config.miners.push_back({"c", 0.5, {}, 4 * chain::kMegabyte, 6e5, 1.0});
  for (auto& m : config.miners) {
    m.rule.eb = 32 * chain::kMegabyte;
    m.rule.mg = 32 * chain::kMegabyte;
    m.rule.ad = 6;
  }
  config.faults.link.drop_probability = 0.10;
  config.faults.link.duplicate_probability = 0.05;
  config.faults.link.jitter_seconds = 3.0;
  config.faults.crashes.push_back({1, 50'000.0, 120'000.0});
  config.faults.partitions.push_back({{2}, 300'000.0, 360'000.0});
  NetworkSimulation net(config);
  Rng rng(7);
  const NetworkResult r = net.run(3000, rng);
  EXPECT_EQ(r.blocks_mined, 3000u);
  EXPECT_DOUBLE_EQ(r.duration, 1773032.7366326537);
  EXPECT_EQ(r.canonical_length, 1446u);
  EXPECT_EQ(r.orphaned_blocks, 1554u);
  EXPECT_EQ(r.dropped_messages, 595u);
  EXPECT_EQ(r.duplicated_messages, 260u);
  EXPECT_EQ(r.deferred_deliveries, 224u);
  EXPECT_EQ(r.wasted_finds, 28u);
  expect_miner(r, 0, 806, 3, 803);
  expect_miner(r, 1, 751, 0, 751);
  expect_miner(r, 2, 1443, 1443, 0);
  EXPECT_EQ(rng.next_u64(), 18010593262761697117ull);
}

TEST(SimRegression, NetworkValidityFork) {
  NetworkConfig config;
  NetMiner small;
  small.power = 0.5;
  small.rule.eb = 1 * chain::kMegabyte;
  small.rule.mg = 32 * chain::kMegabyte;
  small.rule.ad = 4;
  small.block_size = 1 * chain::kMegabyte;
  small.bandwidth = 1e6;
  small.latency = 0.01;
  NetMiner big = small;
  big.rule.eb = 8 * chain::kMegabyte;
  big.block_size = 8 * chain::kMegabyte;
  config.miners = {small, big};
  NetworkSimulation net(config);
  Rng rng(77);
  const NetworkResult r = net.run(2000, rng);
  EXPECT_EQ(r.blocks_mined, 2000u);
  EXPECT_DOUBLE_EQ(r.duration, 1249654.554313689);
  EXPECT_EQ(r.canonical_length, 1994u);
  EXPECT_EQ(r.orphaned_blocks, 6u);
  expect_miner(r, 0, 994, 988, 6);
  expect_miner(r, 1, 1006, 1006, 0);
  EXPECT_EQ(rng.next_u64(), 1508597469776837043ull);
}

/// The engine's view of one run, read from the `sim.engine.*` metrics.
struct EngineCounts {
  std::uint64_t dispatched = 0;
  double peak_queue_depth = 0.0;
};

NetworkResult run_counted(const NetworkSimulation& net, std::uint64_t blocks,
                          Rng& rng, EngineCounts& counts,
                          Timeline* timeline = nullptr) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& dispatched = registry.counter("sim.engine.events_dispatched");
  const std::uint64_t before = dispatched.value();
  const NetworkResult result = net.run(blocks, rng, {}, timeline);
  counts.dispatched = dispatched.value() - before;
  counts.peak_queue_depth =
      registry.gauge("sim.engine.queue_depth_peak").value();
  obs::set_metrics_enabled(false);
  return result;
}

// Relay mode: four miners with unequal block sizes gossiping over a seeded
// random topology, so small children overtake large parents and park.
NetworkConfig relay_network(std::size_t nodes, std::uint64_t topology_seed) {
  NetworkConfig config;
  config.miners.push_back({"a", 0.3, {}, 1 * chain::kMegabyte, 1e6, 1.0});
  config.miners.push_back({"b", 0.3, {}, 8 * chain::kMegabyte, 1e6, 1.0});
  config.miners.push_back({"c", 0.25, {}, 4 * chain::kMegabyte, 1e6, 1.0});
  config.miners.push_back({"d", 0.15, {}, 2 * chain::kMegabyte, 1e6, 1.0});
  for (auto& m : config.miners) {
    m.rule.eb = 32 * chain::kMegabyte;
    m.rule.mg = 32 * chain::kMegabyte;
    m.rule.ad = 6;
  }
  RandomTopologyConfig graph;
  graph.nodes = nodes;
  graph.seed = topology_seed;
  config.topology = random_topology(graph);
  config.miner_nodes = {0, static_cast<std::uint32_t>(nodes / 4),
                        static_cast<std::uint32_t>(nodes / 2),
                        static_cast<std::uint32_t>(3 * nodes / 4)};
  config.relay_rule = config.miners.front().rule;
  return config;
}

TEST(SimRegression, RelayRandomTopologyNoFaults) {
  NetworkSimulation net(relay_network(300, 2017));
  Rng rng(41);
  EngineCounts engine;
  const NetworkResult r = run_counted(net, 200, rng, engine);
  EXPECT_EQ(r.blocks_mined, 200u);
  EXPECT_EQ(r.duration, 137002.02899840928);
  EXPECT_EQ(r.canonical_length, 196u);
  EXPECT_EQ(r.orphaned_blocks, 4u);
  EXPECT_EQ(r.status, robust::RunStatus::kConverged);
  EXPECT_EQ(r.dropped_messages, 0u);
  EXPECT_EQ(r.duplicated_messages, 0u);
  EXPECT_EQ(r.deferred_deliveries, 0u);
  EXPECT_EQ(r.wasted_finds, 0u);
  EXPECT_EQ(r.relayed_messages, 177600u);
  expect_miner(r, 0, 56, 55, 1);
  expect_miner(r, 1, 68, 67, 1);
  expect_miner(r, 2, 51, 50, 1);
  expect_miner(r, 3, 25, 24, 1);
  EXPECT_EQ(rng.next_u64(), 13676947996431054919ull);
  EXPECT_EQ(engine.dispatched, 84068u);
  EXPECT_EQ(engine.peak_queue_depth, 598.0);
}

TEST(SimRegression, RelayFaultsAndCompactRelayWithTimeline) {
  NetworkConfig config = relay_network(150, 2018);
  config.relay.compact = true;
  config.faults.seed = 99;
  config.faults.link.drop_probability = 0.05;
  config.faults.link.duplicate_probability = 0.10;
  config.faults.link.jitter_seconds = 1.5;
  config.faults.crashes.push_back({37, 20'000.0, 60'000.0});
  robust::PartitionWindow cut{{}, 80'000.0, 110'000.0};
  for (std::size_t node = 0; node < 30; ++node) {
    cut.island.push_back(node);  // miner a and its neighbourhood
  }
  config.faults.partitions.push_back(cut);
  NetworkSimulation net(config);
  Rng rng(42);
  Timeline timeline;
  EngineCounts engine;
  const NetworkResult r = run_counted(net, 200, rng, engine, &timeline);
  EXPECT_EQ(r.blocks_mined, 200u);
  EXPECT_EQ(r.duration, 138042.19056354254);
  EXPECT_EQ(r.canonical_length, 186u);
  EXPECT_EQ(r.orphaned_blocks, 14u);
  EXPECT_EQ(r.status, robust::RunStatus::kConverged);
  EXPECT_EQ(r.dropped_messages, 4415u);
  EXPECT_EQ(r.duplicated_messages, 8397u);
  EXPECT_EQ(r.deferred_deliveries, 4482u);
  EXPECT_EQ(r.wasted_finds, 16u);
  EXPECT_EQ(r.relayed_messages, 88200u);
  expect_miner(r, 0, 60, 46, 14);
  expect_miner(r, 1, 43, 43, 0);
  expect_miner(r, 2, 67, 67, 0);
  expect_miner(r, 3, 30, 30, 0);
  EXPECT_EQ(rng.next_u64(), 14697195120306765976ull);
  EXPECT_EQ(timeline.size(), 122420u);
  EXPECT_EQ(engine.dispatched, 47609u);
  EXPECT_EQ(engine.peak_queue_depth, 4535.0);
}

TEST(SimRegression, RelayDuplicatedCopiesReparkSiblings) {
  // Thin links with equal latency, unequal block sizes and duplicated
  // copies: sibling blocks park at nodes that still lack their parent, and
  // a later copy of one sibling parks it again behind the other, which
  // decides the order in which the two unpark. Leaving those copies out of
  // the queue would move the locked / orphaned split of miners 0 and 2.
  NetworkConfig config;
  const chain::ByteSize sizes[] = {1, 8, 4, 2, 16};
  for (const chain::ByteSize size : sizes) {
    config.miners.push_back({"m", 0.2, {}, size * chain::kMegabyte, 1e6, 1.0});
    config.miners.back().rule.eb = 32 * chain::kMegabyte;
    config.miners.back().rule.mg = 32 * chain::kMegabyte;
  }
  RandomTopologyConfig graph;
  graph.nodes = 30;
  graph.seed = 3091;
  graph.bandwidth = {5e4, 1e5};
  graph.latency = {0.1, 0.1};
  config.topology = random_topology(graph);
  config.relay_rule = config.miners[1].rule;
  config.faults.seed = 168;
  config.faults.link.duplicate_probability = 0.2;
  NetworkSimulation net(config);
  Rng rng(591);
  EngineCounts engine;
  const NetworkResult r = run_counted(net, 150, rng, engine);
  EXPECT_EQ(r.blocks_mined, 150u);
  EXPECT_EQ(r.duration, 96485.869658003168);
  EXPECT_EQ(r.canonical_length, 131u);
  EXPECT_EQ(r.orphaned_blocks, 19u);
  EXPECT_EQ(r.status, robust::RunStatus::kConverged);
  EXPECT_EQ(r.dropped_messages, 0u);
  EXPECT_EQ(r.duplicated_messages, 2395u);
  EXPECT_EQ(r.deferred_deliveries, 0u);
  EXPECT_EQ(r.wasted_finds, 0u);
  EXPECT_EQ(r.relayed_messages, 11700u);
  expect_miner(r, 0, 27, 22, 5);
  expect_miner(r, 1, 23, 22, 1);
  expect_miner(r, 2, 37, 34, 3);
  expect_miner(r, 3, 42, 40, 2);
  expect_miner(r, 4, 21, 13, 8);
  EXPECT_EQ(rng.next_u64(), 17657066838687731525ull);
  EXPECT_EQ(engine.dispatched, 5577u);
  EXPECT_EQ(engine.peak_queue_depth, 118.0);
}

TEST(SimRegression, RelayMixedRulesValidityFork) {
  // Three BU rules on one gossip graph: miners a and b take blocks up to
  // 1 MB and mine 1 MB, miners c and d take and mine 8 MB, and every relay
  // node runs a third rule (EB 2 MB, AD 3). An 8 MB block is excessive
  // under two rules of the three, so nodes disagree on the tip until its
  // chain is deep enough: validity forks race the natural ones, and the
  // nodes of each rule resolve them on their own schedule.
  NetworkConfig config;
  config.miners.push_back({"a", 0.3, {}, 1 * chain::kMegabyte, 1e6, 1.0});
  config.miners.push_back({"b", 0.2, {}, 1 * chain::kMegabyte, 1e6, 1.0});
  config.miners.push_back({"c", 0.3, {}, 8 * chain::kMegabyte, 1e6, 1.0});
  config.miners.push_back({"d", 0.2, {}, 8 * chain::kMegabyte, 1e6, 1.0});
  for (auto& m : config.miners) {
    m.rule.eb = m.block_size;
    m.rule.mg = 32 * chain::kMegabyte;
    m.rule.ad = 4;
  }
  RandomTopologyConfig graph;
  graph.nodes = 200;
  graph.seed = 2019;
  config.topology = random_topology(graph);
  config.miner_nodes = {0, 50, 100, 150};
  config.relay_rule.eb = 2 * chain::kMegabyte;
  config.relay_rule.mg = 32 * chain::kMegabyte;
  config.relay_rule.ad = 3;
  NetworkSimulation net(config);
  Rng rng(43);
  Timeline timeline;
  EngineCounts engine;
  const NetworkResult r = run_counted(net, 300, rng, engine, &timeline);
  EXPECT_EQ(r.blocks_mined, 300u);
  EXPECT_EQ(r.duration, 188879.71277965634);
  EXPECT_EQ(r.canonical_length, 292u);
  EXPECT_EQ(r.orphaned_blocks, 8u);
  EXPECT_EQ(r.status, robust::RunStatus::kConverged);
  EXPECT_EQ(r.relayed_messages, 177900u);
  // Only the 8 MB miners lose blocks: their chains pend at every node of
  // the other two rules.
  expect_miner(r, 0, 90, 90, 0);
  expect_miner(r, 1, 53, 53, 0);
  expect_miner(r, 2, 93, 91, 2);
  expect_miner(r, 3, 64, 58, 6);
  EXPECT_EQ(rng.next_u64(), 608623304759911445ull);
  EXPECT_EQ(timeline.size(), 238905u);
  std::ostringstream trace;
  timeline.write_chrome_trace(trace);
  const std::string text = trace.str();
  std::size_t fork_switches = 0;
  for (std::size_t at = text.find("\"cat\":\"fork\""); at != std::string::npos;
       at = text.find("\"cat\":\"fork\"", at + 1)) {
    ++fork_switches;
  }
  EXPECT_EQ(fork_switches, 705u);
  EXPECT_EQ(engine.dispatched, 83126u);
  EXPECT_EQ(engine.peak_queue_depth, 292.0);
}

TEST(SimRegression, AttackScenarioRandomPolicy) {
  bu::AttackParams params;
  params.alpha = 0.2;
  params.beta = 0.4;
  params.gamma = 0.4;
  params.setting = bu::Setting::kStickyGate;
  params.ad = 4;
  params.gate_period = 6;
  const bu::AttackModel model =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  mdp::Policy policy;
  policy.action.resize(model.space.size());
  Rng prng(5);
  for (mdp::StateId id = 0; id < model.space.size(); ++id) {
    policy.action[id] = static_cast<std::uint32_t>(
        prng.next_below(model.compiled->num_actions(id)));
  }
  ScenarioOptions options;
  options.check_against_model = true;
  options.reroot_threshold = 16;
  AttackScenarioSim simulator(model, options);
  Rng rng(31337);
  const ScenarioResult r = simulator.run(policy, 40'000, rng);
  EXPECT_EQ(r.steps, 40000u);
  EXPECT_DOUBLE_EQ(r.utility_estimate, 0.20022499999999999);
  EXPECT_DOUBLE_EQ(r.totals.alice_locked, 8009.0);
  EXPECT_DOUBLE_EQ(r.totals.others_locked, 31991.0);
  EXPECT_DOUBLE_EQ(r.totals.alice_orphaned, 0.0);
  EXPECT_DOUBLE_EQ(r.totals.others_orphaned, 0.0);
  EXPECT_EQ(r.forks_started, 0u);
  EXPECT_EQ(r.status, robust::RunStatus::kConverged);
  EXPECT_EQ(rng.next_u64(), 3728820717351235316ull);
}

TEST(SimRegression, AttackScenarioOptimalPolicy) {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.375;
  params.gamma = 0.375;
  params.setting = bu::Setting::kNoStickyGate;
  params.ad = 6;
  const bu::AttackModel model =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  const bu::AnalysisResult analysis = bu::analyze(model);
  ScenarioOptions options;
  options.check_against_model = true;
  AttackScenarioSim simulator(model, options);
  Rng rng(20170417);
  const ScenarioResult r = simulator.run(analysis.policy, 100'000, rng);
  EXPECT_EQ(r.steps, 100000u);
  EXPECT_DOUBLE_EQ(r.utility_estimate, 0.26102895178039687);
  EXPECT_DOUBLE_EQ(r.totals.alice_locked, 20863.0);
  EXPECT_DOUBLE_EQ(r.totals.others_locked, 59063.0);
  EXPECT_DOUBLE_EQ(r.totals.alice_orphaned, 4103.0);
  EXPECT_DOUBLE_EQ(r.totals.others_orphaned, 15971.0);
  EXPECT_DOUBLE_EQ(r.totals.double_spend, 20690.0);
  EXPECT_EQ(r.forks_started, 9789u);
  EXPECT_EQ(r.chain1_wins, 2846u);
  EXPECT_EQ(r.chain2_wins, 6943u);
  EXPECT_EQ(r.double_spend_events, 1580u);
  EXPECT_EQ(rng.next_u64(), 838368486849157976ull);
}

}  // namespace
