#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sim/network_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using namespace bvc::sim;
using chain::kMegabyte;

NetMiner miner(std::string name, double power, chain::ByteSize size,
               double bandwidth, double latency = 1.0) {
  NetMiner m;
  m.name = std::move(name);
  m.power = power;
  m.rule.eb = 32 * kMegabyte;  // validity not the bottleneck by default
  m.rule.mg = 32 * kMegabyte;
  m.block_size = size;
  m.bandwidth = bandwidth;
  m.latency = latency;
  return m;
}

TEST(NetworkSim, ConservesBlocks) {
  NetworkConfig config;
  config.miners = {miner("a", 0.5, kMegabyte, 1e6),
                   miner("b", 0.5, kMegabyte, 1e6)};
  NetworkSimulation simulation(config);
  Rng rng(1);
  const NetworkResult result = simulation.run(2000, rng);
  EXPECT_EQ(result.blocks_mined, 2000u);
  std::uint64_t mined = 0;
  std::uint64_t settled = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    mined += result.mined_per_miner[i];
    settled += result.locked_per_miner[i] + result.orphaned_per_miner[i];
  }
  EXPECT_EQ(mined, 2000u);
  EXPECT_EQ(settled, 2000u);
  EXPECT_EQ(result.canonical_length + result.orphaned_blocks, 2000u);
}

TEST(NetworkSim, MiningFollowsPower) {
  NetworkConfig config;
  config.miners = {miner("a", 0.2, kMegabyte, 1e7),
                   miner("b", 0.8, kMegabyte, 1e7)};
  NetworkSimulation simulation(config);
  Rng rng(2);
  const NetworkResult result = simulation.run(20000, rng);
  EXPECT_NEAR(
      static_cast<double>(result.mined_per_miner[0]) / 20000.0, 0.2, 0.01);
}

TEST(NetworkSim, FastLinksProduceFewOrphans) {
  // 1 MB blocks over 100 MB/s links with 0.1 s latency: propagation is
  // ~0.11 s against a 600 s block interval; orphans should be ~0.02%.
  NetworkConfig config;
  config.miners = {miner("a", 0.5, kMegabyte, 1e8, 0.1),
                   miner("b", 0.5, kMegabyte, 1e8, 0.1)};
  NetworkSimulation simulation(config);
  Rng rng(3);
  const NetworkResult result = simulation.run(20000, rng);
  EXPECT_LT(result.orphan_rate(), 0.005);
}

TEST(NetworkSim, SlowPropagationCreatesOrphans) {
  // 8 MB blocks over 100 kB/s links: 80 s propagation vs 600 s interval —
  // a substantial natural fork rate must appear.
  NetworkConfig config;
  config.miners = {miner("a", 0.5, 8 * kMegabyte, 1e5),
                   miner("b", 0.5, 8 * kMegabyte, 1e5)};
  NetworkSimulation simulation(config);
  Rng rng(4);
  const NetworkResult result = simulation.run(20000, rng);
  EXPECT_GT(result.orphan_rate(), 0.05);
}

TEST(NetworkSim, OrphanRateGrowsWithBlockSize) {
  // The relationship behind Assumption 2 (every miner has an MPB): larger
  // blocks -> longer propagation -> more orphans.
  double previous = -1.0;
  for (const chain::ByteSize size :
       {kMegabyte, 4 * kMegabyte, 16 * kMegabyte}) {
    NetworkConfig config;
    config.miners = {miner("a", 0.5, size, 2e5),
                     miner("b", 0.5, size, 2e5)};
    NetworkSimulation simulation(config);
    Rng rng(5);
    const NetworkResult result = simulation.run(30000, rng);
    EXPECT_GT(result.orphan_rate(), previous);
    previous = result.orphan_rate();
  }
}

TEST(NetworkSim, SlowNodeLosesDisproportionately) {
  // A miner behind a thin pipe hears about blocks late and mines stale
  // parents: its own blocks get orphaned more often.
  NetworkConfig config;
  config.miners = {miner("fast", 0.5, 8 * kMegabyte, 1e7, 0.1),
                   miner("slow", 0.5, 8 * kMegabyte, 5e4, 2.0)};
  NetworkSimulation simulation(config);
  Rng rng(6);
  const NetworkResult result = simulation.run(20000, rng);
  EXPECT_GT(result.orphan_rate(1), result.orphan_rate(0));
}

TEST(NetworkSim, ValidityForksFromEbDisagreement) {
  // Even with instant links, a small-EB node ignores big blocks until AD —
  // validity forks replace propagation forks (the paper's point: the
  // attack surface exists independently of network speed).
  NetworkConfig config;
  NetMiner big = miner("big", 0.7, 8 * kMegabyte, 1e9, 0.001);
  NetMiner small = miner("small", 0.3, kMegabyte, 1e9, 0.001);
  small.rule.eb = kMegabyte;
  small.rule.mg = kMegabyte;
  small.rule.ad = 6;
  config.miners = {big, small};
  NetworkSimulation simulation(config);
  Rng rng(7);
  const NetworkResult result = simulation.run(20000, rng);
  EXPECT_GT(result.orphaned_blocks, 0u);
  // The small-EB miner suffers: most orphans are its blocks.
  EXPECT_GT(result.orphaned_per_miner[1], result.orphaned_per_miner[0]);
}

// A compliant BU miner whose links deliver a block about 1 us after its
// find, against a 600 s block interval: effectively zero delay.
NetMiner instant_miner(std::string name, double power, chain::ByteSize eb,
                       chain::ByteSize mg) {
  NetMiner m = miner(std::move(name), power, mg, 1e15, 1e-6);
  m.rule.eb = eb;
  m.rule.mg = mg;
  m.rule.ad = 6;
  return m;
}

// Stone's observation, reproduced: miners with identical parameters who
// never adapt their block size orphan nothing at zero delay, so each locks
// blocks in proportion to its power.
void expect_no_forks_and_proportional_rewards(
    const std::vector<double>& powers, std::uint64_t seed,
    std::uint64_t blocks) {
  NetworkConfig config;
  for (const double power : powers) {
    config.miners.push_back(instant_miner("m", power, kMegabyte, kMegabyte));
  }
  const NetworkSimulation simulation(config);
  Rng rng(seed);
  const NetworkResult result = simulation.run(blocks, rng);
  EXPECT_EQ(result.orphaned_blocks, 0u);
  EXPECT_EQ(result.canonical_length, blocks);
  for (std::size_t i = 0; i < powers.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(result.locked_per_miner[i]) /
                    static_cast<double>(blocks),
                powers[i], 0.01)
        << "miner " << i;
  }
}

TEST(NetworkSim, HomogeneousNetworkNeverForksAtZeroDelay) {
  expect_no_forks_and_proportional_rewards({0.3, 0.3, 0.4}, 1, 20'000);
}

TEST(NetworkSim, RewardsProportionalToPowerAtZeroDelay) {
  expect_no_forks_and_proportional_rewards({0.25, 0.75}, 2, 40'000);
}

TEST(NetworkSim, SplitWithoutStickyGateOrphansTheSmallEbMiner) {
  // Setting 1 (no sticky gate): every 8 MB block is excessive to the 1 MB
  // node until it is AD deep, so the small miner mines about AD - 1 blocks
  // behind the majority's tip and its blocks almost never make the chain.
  NetworkConfig config;
  config.miners = {
      instant_miner("big", 0.7, 8 * kMegabyte, 8 * kMegabyte),
      instant_miner("small", 0.3, kMegabyte, kMegabyte)};
  for (NetMiner& m : config.miners) {
    m.rule.sticky_gate = false;
  }
  const NetworkSimulation simulation(config);
  Rng rng(1);
  const NetworkResult result = simulation.run(20'000, rng);
  EXPECT_EQ(result.canonical_length + result.orphaned_blocks,
            result.blocks_mined);
  EXPECT_EQ(result.orphaned_per_miner[0], 0u);
  EXPECT_GT(static_cast<double>(result.orphaned_per_miner[1]),
            0.9 * static_cast<double>(result.mined_per_miner[1]));
}

TEST(NetworkSim, ValidatesConfig) {
  NetworkConfig config;
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
  config.miners = {miner("a", 0.5, kMegabyte, 1e6)};
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);  // sum
  config.miners = {miner("a", 0.5, kMegabyte, 1e6),
                   miner("b", 0.5, 2 * kMegabyte, 1e6)};
  config.miners[1].rule.mg = kMegabyte;  // mines above own MG
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
}

// One test per rejected field, so a regression names the check it broke.

NetworkConfig valid_pair() {
  NetworkConfig config;
  config.miners = {miner("a", 0.5, kMegabyte, 1e6),
                   miner("b", 0.5, kMegabyte, 1e6)};
  return config;
}

TEST(NetworkSimValidation, RejectsNegativePower) {
  NetworkConfig config = valid_pair();
  config.miners[0].power = -0.1;
  config.miners[1].power = 1.1;  // keep the sum at 1: the sign must trip
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
}

TEST(NetworkSimValidation, RejectsPowersNotSummingToOne) {
  NetworkConfig config = valid_pair();
  config.miners[0].power = 0.6;  // total 1.1
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
}

TEST(NetworkSimValidation, RejectsNonPositivePower) {
  // A zero-power miner would never mine yet still occupy a categorical
  // slot; the validation names the offending miner.
  NetworkConfig config = valid_pair();
  config.miners[0].power = 0.0;
  config.miners[1].power = 1.0;
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
  try {
    NetworkSimulation simulation(config);
    FAIL() << "zero power must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("miners[0].power"),
              std::string::npos);
  }
}

TEST(NetworkSimValidation, RejectsEmptyMinerList) {
  NetworkConfig config;
  try {
    NetworkSimulation simulation(config);
    FAIL() << "an empty miner list must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("miners"), std::string::npos);
  }
}

TEST(NetworkSimValidation, RejectsNonPositiveBandwidth) {
  NetworkConfig config = valid_pair();
  config.miners[1].bandwidth = 0.0;
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
  config.miners[1].bandwidth = -1e6;
  try {
    NetworkSimulation simulation(config);
    FAIL() << "negative bandwidth must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("miners[1].bandwidth"),
              std::string::npos);
  }
}

TEST(NetworkSimValidation, RejectsNonPositiveLatency) {
  NetworkConfig config = valid_pair();
  config.miners[0].latency = -0.5;
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
  config.miners[0].latency = 0.0;
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
}

TEST(NetworkSimValidation, RejectsNonPositiveBlockInterval) {
  NetworkConfig config = valid_pair();
  config.block_interval = 0.0;
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
  config.block_interval = -600.0;
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
}

TEST(NetworkSimValidation, RejectsInvalidFaultPlan) {
  NetworkConfig config = valid_pair();
  config.faults.link.drop_probability = 1.5;
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
}

// ------------------------------------------------- multi-hop relay mode ---

NetworkConfig relay_config(std::size_t nodes) {
  NetworkConfig config = valid_pair();
  RandomTopologyConfig graph;
  graph.nodes = nodes;
  graph.seed = 99;
  config.topology = random_topology(graph);
  return config;
}

TEST(NetworkSimRelay, ConservesBlocksAndGossips) {
  NetworkConfig config = relay_config(24);
  NetworkSimulation simulation(config);
  Rng rng(21);
  const NetworkResult result = simulation.run(500, rng);
  EXPECT_EQ(result.blocks_mined, 500u);
  EXPECT_EQ(result.canonical_length + result.orphaned_blocks, 500u);
  // Multi-hop gossip must actually relay: strictly more copies than the
  // direct mode's (n-1) per block.
  EXPECT_GT(result.relayed_messages, 500u * 2);
  EXPECT_EQ(result.status, robust::RunStatus::kConverged);
}

TEST(NetworkSimRelay, HubSpokeRuns) {
  NetworkConfig config = valid_pair();
  HubSpokeConfig graph;
  graph.nodes = 30;
  graph.hubs = 3;
  config.topology = hub_spoke_topology(graph);
  config.miner_nodes = {5, 17};  // miners on spokes, not hubs
  NetworkSimulation simulation(config);
  Rng rng(22);
  const NetworkResult result = simulation.run(400, rng);
  EXPECT_EQ(result.blocks_mined, 400u);
  EXPECT_EQ(result.canonical_length + result.orphaned_blocks, 400u);
}

TEST(NetworkSimRelay, CompactRelayReducesOrphans) {
  // Thin/expedited-style relay shrinks wire bytes, so large blocks
  // propagate mostly latency-bound and orphan less.
  NetworkConfig slow = valid_pair();
  slow.miners[0].block_size = 8 * kMegabyte;
  slow.miners[1].block_size = 8 * kMegabyte;
  RandomTopologyConfig graph;
  graph.nodes = 16;
  graph.bandwidth = {5e4, 1e5};  // thin pipes: full blocks take ~100 s/hop
  graph.seed = 7;
  slow.topology = random_topology(graph);
  NetworkConfig compact = slow;
  compact.relay.compact = true;

  Rng rng_full(23);
  Rng rng_compact(23);
  const NetworkResult full =
      NetworkSimulation(slow).run(3000, rng_full);
  const NetworkResult thin =
      NetworkSimulation(compact).run(3000, rng_compact);
  EXPECT_LT(thin.orphan_rate(), full.orphan_rate());
}

TEST(NetworkSimRelay, RedundantCopiesAreCountedButNotDispatched) {
  // A ring 0-1-2-3-0 with identical links and one miner at node 0: node 2
  // hears the block from node 1 and from node 3 at the same instant. Both
  // copies count as relayed messages; only the first one is dispatched.
  NetworkConfig config;
  config.miners = {miner("solo", 1.0, kMegabyte, 1e6)};
  config.topology.adjacency.resize(4);
  for (std::uint32_t a = 0; a < 4; ++a) {
    const std::uint32_t b = (a + 1) % 4;
    config.topology.adjacency[a].push_back({b, 0.5, 1e6});
    config.topology.adjacency[b].push_back({a, 0.5, 1e6});
  }
  NetworkSimulation simulation(config);
  obs::set_metrics_enabled(true);
  obs::Counter& events =
      obs::MetricsRegistry::global().counter("sim.net.events");
  const std::uint64_t before = events.value();
  Rng rng(31);
  const NetworkResult result = simulation.run(1, rng);
  const std::uint64_t dispatched = events.value() - before;
  obs::set_metrics_enabled(false);
  EXPECT_EQ(result.blocks_mined, 1u);
  EXPECT_EQ(result.canonical_length, 1u);
  EXPECT_EQ(result.relayed_messages, 4u);
  EXPECT_EQ(dispatched, 4u);  // the find and one arrival at each other node
}

TEST(NetworkSimRelay, StaleDeliveriesCountCopiesOfKnownBlocks) {
  // A triangle with one slow edge: the miner's direct copy to node 2 lands
  // at +6 s, but node 1 relays the block to node 2 by +4 s. Landing
  // earlier, the relayed copy is queued too, and the direct copy then
  // dispatches for a block node 2 already knows: one stale delivery.
  NetworkConfig config;
  config.miners = {miner("solo", 1.0, kMegabyte, 1e6)};
  config.topology.adjacency.resize(3);
  const auto link = [&](std::uint32_t a, std::uint32_t b, double latency) {
    config.topology.adjacency[a].push_back({b, latency, 1e6});
    config.topology.adjacency[b].push_back({a, latency, 1e6});
  };
  link(0, 1, 1.0);
  link(0, 2, 5.0);
  link(1, 2, 1.0);
  NetworkSimulation simulation(config);
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& events = registry.counter("sim.net.events");
  obs::Counter& stale = registry.counter("sim.net.stale_deliveries");
  const std::uint64_t events_before = events.value();
  const std::uint64_t stale_before = stale.value();
  Rng rng(31);
  const NetworkResult result = simulation.run(1, rng);
  const std::uint64_t dispatched = events.value() - events_before;
  const std::uint64_t stale_copies = stale.value() - stale_before;
  obs::set_metrics_enabled(false);
  EXPECT_EQ(result.relayed_messages, 3u);
  EXPECT_EQ(dispatched, 4u);  // the find and all three copies
  EXPECT_EQ(stale_copies, 1u);
}

TEST(NetworkSimRelay, ValidatesTopologyPlacement) {
  NetworkConfig config = relay_config(8);
  config.miner_nodes = {1};  // must name one node per miner
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
  config.miner_nodes = {1, 1};  // distinct nodes
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
  config.miner_nodes = {1, 9};  // out of range
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
  config.miner_nodes = {1, 7};
  EXPECT_NO_THROW(NetworkSimulation{config});

  NetworkConfig direct = valid_pair();
  direct.miner_nodes = {0, 1};  // placements require a topology
  EXPECT_THROW(NetworkSimulation{direct}, std::invalid_argument);
}

TEST(NetworkSimRelay, FaultPlanIndicesCoverTopologyNodes) {
  NetworkConfig config = relay_config(8);
  config.faults.crashes.push_back({7, 0.0, 100.0});  // node 7 exists
  EXPECT_NO_THROW(NetworkSimulation{config});
  config.faults.crashes.back().node = 8;  // out of range
  EXPECT_THROW(NetworkSimulation{config}, std::invalid_argument);
}

}  // namespace
