// Tests of the fault-injection subsystem: FaultPlan semantics and
// validation, determinism under a fixed seed, the zero-plan ≡ baseline
// guarantee, and the qualitative effect of each fault class on the network
// simulation.
#include <gtest/gtest.h>

#include <string>

#include "robust/fault_plan.hpp"
#include "sim/network_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using robust::CrashWindow;
using robust::FaultPlan;
using robust::LinkFault;
using robust::LinkFaultOverride;
using robust::PartitionWindow;
using chain::kMegabyte;

sim::NetworkConfig two_miner_config() {
  sim::NetworkConfig config;
  for (int i = 0; i < 2; ++i) {
    sim::NetMiner m;
    m.name = std::string("m").append(std::to_string(i));
    m.power = 0.5;
    m.rule.eb = 32 * kMegabyte;
    m.rule.mg = 32 * kMegabyte;
    m.block_size = 4 * kMegabyte;
    m.bandwidth = 1e6;
    m.latency = 2.0;
    config.miners.push_back(std::move(m));
  }
  return config;
}

sim::NetworkResult run(const sim::NetworkConfig& config, std::uint64_t blocks,
                       std::uint64_t seed = 42) {
  sim::NetworkSimulation simulation(config);
  Rng rng(seed);
  return simulation.run(blocks, rng);
}

// ------------------------------------------------------- plan semantics ---

TEST(FaultPlan, DefaultPlanIsEmpty) {
  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlan, NonTrivialPlansAreNotEmpty) {
  FaultPlan drops;
  drops.link.drop_probability = 0.1;
  EXPECT_FALSE(drops.empty());

  FaultPlan crash;
  crash.crashes.push_back({0, 1.0, 2.0});
  EXPECT_FALSE(crash.empty());

  FaultPlan degenerate;  // zero-length windows can have no effect
  degenerate.crashes.push_back({0, 5.0, 5.0});
  degenerate.partitions.push_back({{0}, 3.0, 3.0});
  EXPECT_TRUE(degenerate.empty());
}

TEST(FaultPlan, LinkOverridesShadowTheDefault) {
  FaultPlan plan;
  plan.link.drop_probability = 0.5;
  LinkFault clean;
  plan.link_overrides.push_back({0, 1, clean});
  EXPECT_DOUBLE_EQ(plan.link_fault(0, 1).drop_probability, 0.0);
  EXPECT_DOUBLE_EQ(plan.link_fault(1, 0).drop_probability, 0.5);  // directed
}

TEST(FaultPlan, CrashWindowsAreHalfOpen) {
  FaultPlan plan;
  plan.crashes.push_back({1, 10.0, 20.0});
  double up_at = 0.0;
  EXPECT_FALSE(plan.crashed_at(1, 9.999));
  EXPECT_TRUE(plan.crashed_at(1, 10.0, &up_at));
  EXPECT_DOUBLE_EQ(up_at, 20.0);
  EXPECT_TRUE(plan.crashed_at(1, 19.999));
  EXPECT_FALSE(plan.crashed_at(1, 20.0));
  EXPECT_FALSE(plan.crashed_at(0, 15.0));  // other nodes unaffected
}

TEST(FaultPlan, PartitionSeparatesOnlyCrossCutPairs) {
  FaultPlan plan;
  plan.partitions.push_back({{0, 1}, 100.0, 200.0});
  double heals_at = 0.0;
  EXPECT_TRUE(plan.partitioned_at(0, 2, 150.0, &heals_at));
  EXPECT_DOUBLE_EQ(heals_at, 200.0);
  EXPECT_TRUE(plan.partitioned_at(2, 1, 150.0));  // symmetric
  EXPECT_FALSE(plan.partitioned_at(0, 1, 150.0));  // same side: island
  EXPECT_FALSE(plan.partitioned_at(2, 3, 150.0));  // same side: complement
  EXPECT_FALSE(plan.partitioned_at(0, 2, 99.9));   // before the window
  EXPECT_FALSE(plan.partitioned_at(0, 2, 200.0));  // after it heals
}

// ------------------------------------------------------------ validation ---

TEST(FaultPlanValidation, AcceptsReasonablePlans) {
  FaultPlan plan;
  plan.link.drop_probability = 0.3;
  plan.link.duplicate_probability = 0.2;
  plan.link.jitter_seconds = 5.0;
  plan.link_overrides.push_back({0, 2, LinkFault{1.0, 0.0, 0.0}});
  plan.crashes.push_back({1, 0.0, 100.0});
  plan.partitions.push_back({{0, 1}, 50.0, 60.0});
  EXPECT_NO_THROW(plan.validate(3));
}

TEST(FaultPlanValidation, RejectsDropProbabilityOutOfRange) {
  FaultPlan plan;
  plan.link.drop_probability = 1.5;
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
  plan.link.drop_probability = -0.1;
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(FaultPlanValidation, RejectsDuplicateProbabilityOutOfRange) {
  FaultPlan plan;
  plan.link.duplicate_probability = 2.0;
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(FaultPlanValidation, RejectsNegativeJitter) {
  FaultPlan plan;
  plan.link.jitter_seconds = -1.0;
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(FaultPlanValidation, RejectsSelfLinkOverride) {
  FaultPlan plan;
  plan.link_overrides.push_back({1, 1, LinkFault{}});
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(FaultPlanValidation, RejectsOverrideEndpointOutOfRange) {
  FaultPlan plan;
  plan.link_overrides.push_back({0, 5, LinkFault{}});
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(FaultPlanValidation, RejectsBackwardsCrashWindow) {
  FaultPlan plan;
  plan.crashes.push_back({0, 10.0, 5.0});
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
  plan.crashes[0] = {0, -1.0, 5.0};
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(FaultPlanValidation, RejectsCrashNodeOutOfRange) {
  FaultPlan plan;
  plan.crashes.push_back({7, 0.0, 1.0});
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(FaultPlanValidation, RejectsPartitionNodeOutOfRange) {
  FaultPlan plan;
  plan.partitions.push_back({{0, 9}, 0.0, 1.0});
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(FaultPlanValidation, RejectsBackwardsPartitionWindow) {
  FaultPlan plan;
  plan.partitions.push_back({{0}, 2.0, 1.0});
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

// ----------------------------------------------------------- determinism ---

TEST(FaultInjection, SameSeedAndPlanAreBitIdentical) {
  sim::NetworkConfig config = two_miner_config();
  config.faults.seed = 999;
  config.faults.link.drop_probability = 0.1;
  config.faults.link.duplicate_probability = 0.05;
  config.faults.link.jitter_seconds = 3.0;
  config.faults.crashes.push_back({1, 60'000.0, 120'000.0});
  config.faults.partitions.push_back({{0}, 300'000.0, 360'000.0});

  const sim::NetworkResult a = run(config, 5000);
  const sim::NetworkResult b = run(config, 5000);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.dropped_messages, 0u);
}

TEST(FaultInjection, DifferentFaultSeedsDiverge) {
  sim::NetworkConfig config = two_miner_config();
  config.faults.link.drop_probability = 0.2;
  config.faults.seed = 1;
  const sim::NetworkResult a = run(config, 5000);
  config.faults.seed = 2;
  const sim::NetworkResult b = run(config, 5000);
  // Same mining stream, different fault draws: the runs must not coincide.
  EXPECT_NE(a, b);
}

TEST(FaultInjection, ZeroFaultPlanMatchesNoFaultBaseline) {
  const sim::NetworkResult baseline = run(two_miner_config(), 5000);

  // All-zero probabilities and empty windows, but a non-default seed: the
  // fault stream exists yet is never drawn from, so the run is bit-identical
  // to one with no fault machinery at all.
  sim::NetworkConfig config = two_miner_config();
  config.faults.seed = 123456789;
  config.faults.link.drop_probability = 0.0;
  config.faults.link.duplicate_probability = 0.0;
  config.faults.link.jitter_seconds = 0.0;
  const sim::NetworkResult zeroed = run(config, 5000);
  EXPECT_EQ(baseline, zeroed);

  // Zero-length windows are equally inert.
  config.faults.crashes.push_back({0, 100.0, 100.0});
  config.faults.partitions.push_back({{1}, 100.0, 100.0});
  const sim::NetworkResult windows = run(config, 5000);
  EXPECT_EQ(baseline, windows);
}

// ------------------------------------------------------- fault behaviour ---

TEST(FaultInjection, DropsRaiseTheOrphanRate) {
  const sim::NetworkResult baseline = run(two_miner_config(), 5000);

  sim::NetworkConfig config = two_miner_config();
  config.faults.link.drop_probability = 0.2;
  const sim::NetworkResult degraded = run(config, 5000);

  EXPECT_GT(degraded.dropped_messages, 0u);
  EXPECT_GT(degraded.orphan_rate(), baseline.orphan_rate());
  EXPECT_EQ(degraded.blocks_mined, baseline.blocks_mined);
}

TEST(FaultInjection, JitterFreeDuplicatesDoNotChangeTheChain) {
  const sim::NetworkResult baseline = run(two_miner_config(), 5000);

  sim::NetworkConfig config = two_miner_config();
  config.faults.link.duplicate_probability = 0.5;
  const sim::NetworkResult doubled = run(config, 5000);

  // The second copy arrives at the same instant and is already known:
  // delivery is idempotent, so only the counter moves.
  EXPECT_GT(doubled.duplicated_messages, 0u);
  EXPECT_EQ(doubled.orphaned_blocks, baseline.orphaned_blocks);
  EXPECT_EQ(doubled.canonical_length, baseline.canonical_length);
}

TEST(FaultInjection, CrashedMinerWastesItsFinds) {
  sim::NetworkConfig config = two_miner_config();
  // Miner 1 is down for the whole run: every one of its finds is wasted and
  // every delivery to it is deferred to the window end.
  config.faults.crashes.push_back({1, 0.0, 1e18});
  const sim::NetworkResult result = run(config, 2000);

  EXPECT_GT(result.wasted_finds, 0u);
  EXPECT_EQ(result.mined_per_miner[1], 0u);
  EXPECT_EQ(result.mined_per_miner[0], result.blocks_mined);
  EXPECT_GT(result.deferred_deliveries, 0u);
  // The survivor's chain is the canonical one, with no forks.
  EXPECT_EQ(result.orphaned_blocks, 0u);
}

TEST(FaultInjection, PartitionDefersCrossCutDeliveries) {
  sim::NetworkConfig config = two_miner_config();
  const double begin = 600.0 * 1000;  // roughly the middle of a 5k-block run
  config.faults.partitions.push_back({{0}, begin, begin + 600.0 * 200});
  const sim::NetworkResult result = run(config, 5000);

  EXPECT_GT(result.deferred_deliveries, 0u);
  // While split, both halves mine blind: the minority side's blocks orphan.
  const sim::NetworkResult baseline = run(two_miner_config(), 5000);
  EXPECT_GT(result.orphaned_blocks, baseline.orphaned_blocks);
  EXPECT_EQ(result, run(config, 5000));  // and all of it deterministically
}

}  // namespace
