// Tests of the sim-clock timeline (src/sim/timeline.cpp) and its
// NetworkSimulation hook: attaching a recorder must not perturb the run
// (identical results, zero extra RNG draws), relay flights must carry
// positive durations on the simulated clock, and the export must be a
// well-formed Chrome trace with one labeled track per node.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "chain/bu_validity.hpp"
#include "obs/json.hpp"
#include "sim/network_sim.hpp"
#include "sim/timeline.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using chain::kMegabyte;

sim::NetworkConfig tiny_network() {
  sim::NetworkConfig config;
  for (int i = 0; i < 3; ++i) {
    sim::NetMiner miner;
    miner.name = std::string("m").append(std::to_string(i));
    miner.power = i == 0 ? 0.5 : 0.25;
    miner.rule.eb = 8 * kMegabyte;
    miner.rule.mg = 8 * kMegabyte;
    miner.block_size = 4 * kMegabyte;
    miner.bandwidth = 1e6;
    miner.latency = 1.0;
    config.miners.push_back(std::move(miner));
  }
  config.block_interval = 600.0;
  return config;
}

TEST(Timeline, AttachingARecorderDoesNotPerturbTheRun) {
  const sim::NetworkSimulation simulation(tiny_network());
  Rng bare_rng(7);
  const sim::NetworkResult bare = simulation.run(200, bare_rng);

  sim::Timeline timeline;
  Rng recorded_rng(7);
  const sim::NetworkResult recorded =
      simulation.run(200, recorded_rng, {}, &timeline);

  EXPECT_EQ(bare, recorded);
  // Both streams must sit at the same position afterwards (no extra draws).
  EXPECT_EQ(bare_rng.next_double(), recorded_rng.next_double());
  EXPECT_GT(timeline.size(), 0u);
}

TEST(Timeline, RecordsFindsRelaysAcceptsOnEveryNodeTrack) {
  const sim::NetworkSimulation simulation(tiny_network());
  sim::Timeline timeline;
  Rng rng(7);
  const sim::NetworkResult result = simulation.run(100, rng, {}, &timeline);
  ASSERT_EQ(result.blocks_mined, 100u);

  std::ostringstream out;
  timeline.write_chrome_trace(out);
  const std::string text = out.str();
  const std::optional<obs::Json> parsed = obs::Json::parse(text);
  ASSERT_TRUE(parsed.has_value()) << text.substr(0, 200);
  const obs::Json* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int thread_names = 0;
  int finds = 0;
  int relays = 0;
  int accepts = 0;
  for (const obs::Json& event : events->items()) {
    const std::string name = event.string_or("name", "");
    const std::string category = event.string_or("cat", "");
    if (name == "thread_name") {
      ++thread_names;
    } else if (category == "find") {
      ++finds;
    } else if (category == "relay") {
      ++relays;
      // A flight takes latency + size/bandwidth simulated seconds > 0.
      EXPECT_GT(event.number_or("dur", 0.0), 0.0);
    } else if (category == "validation") {
      ++accepts;
    }
  }
  EXPECT_EQ(thread_names, 3);  // one labeled track per node
  EXPECT_EQ(finds, 100);
  // Every block is offered to the other two miners.
  EXPECT_EQ(relays, 200);
  // Every node eventually accepts (nearly) every block.
  EXPECT_GE(accepts, 250);
  EXPECT_NE(text.find("miner m0 @ node-0"), std::string::npos);
}

TEST(Timeline, ValidityForkProducesForkSwitchEvents) {
  // Miners 1 and 2 generate 4 MB blocks that miner 0 (EB 1 MB, AD 2)
  // holds pending: miner 0 forks onto its own small-block branch and —
  // whenever the excessive chain's AD-satisfied prefix outruns it —
  // reorgs onto it. Those reorgs must surface as fork events. (AD 1 would
  // be the degenerate instant-acceptance case with no validity fork.)
  sim::NetworkConfig config = tiny_network();
  config.miners[0].rule.eb = 1 * kMegabyte;
  config.miners[0].rule.ad = 2;
  config.miners[0].block_size = 1 * kMegabyte;
  config.miners[0].rule.mg = 1 * kMegabyte;

  const sim::NetworkSimulation simulation(config);
  sim::Timeline timeline;
  Rng rng(11);
  (void)simulation.run(400, rng, {}, &timeline);

  std::ostringstream out;
  timeline.write_chrome_trace(out);
  const std::optional<obs::Json> parsed = obs::Json::parse(out.str());
  ASSERT_TRUE(parsed.has_value());
  int fork_switches = 0;
  for (const obs::Json& event : parsed->find("traceEvents")->items()) {
    if (event.string_or("cat", "") == "fork") {
      ++fork_switches;
    }
  }
  EXPECT_GT(fork_switches, 0);
}

TEST(Timeline, EmptyRecorderStillWritesValidJson) {
  sim::Timeline timeline;
  std::ostringstream out;
  timeline.write_chrome_trace(out);
  EXPECT_TRUE(obs::Json::parse(out.str()).has_value()) << out.str();
}

}  // namespace
