// Determinism and crash-safety tests for sim::run_replicas: the replica
// fan-out must be bit-identical whatever the thread count or replica
// count, and journaled replicas must restore exactly.
#include "sim/replicas.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include "robust/checkpoint.hpp"
#include "sim/topology.hpp"

namespace {

using namespace bvc;
using namespace bvc::sim;

NetworkConfig small_config() {
  NetworkConfig config;
  config.miners.push_back({"a", 0.4, {}, 1 * chain::kMegabyte, 1e6, 0.5});
  config.miners.push_back({"b", 0.35, {}, 4 * chain::kMegabyte, 3e5, 1.5});
  config.miners.push_back({"c", 0.25, {}, 2 * chain::kMegabyte, 5e5, 1.0});
  for (auto& m : config.miners) {
    m.rule.eb = 32 * chain::kMegabyte;
    m.rule.mg = 32 * chain::kMegabyte;
    m.rule.ad = 6;
  }
  return config;
}

ReplicaOptions small_options(int threads) {
  ReplicaOptions options;
  options.replicas = 6;
  options.blocks = 300;
  options.seed = 2024;
  options.batch.threads = threads;
  return options;
}

std::string temp_journal_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SimReplicas, SeedsAreReplicaCountIndependent) {
  // Substream seeds depend only on (base, i); distinct per replica.
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 64; ++i) {
    seen.insert(replica_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_NE(replica_seed(42, 0), replica_seed(43, 0));
}

TEST(SimReplicas, ThreadCountDoesNotChangeResults) {
  const NetworkConfig config = small_config();
  const ReplicaSetResult serial = run_replicas(config, small_options(1));
  const ReplicaSetResult parallel = run_replicas(config, small_options(8));
  ASSERT_EQ(serial.replicas.size(), 6u);
  ASSERT_EQ(parallel.replicas.size(), 6u);
  for (std::size_t i = 0; i < serial.replicas.size(); ++i) {
    EXPECT_EQ(serial.replicas[i], parallel.replicas[i]) << "replica " << i;
  }
  EXPECT_EQ(serial.orphan_rate.mean, parallel.orphan_rate.mean);
  EXPECT_EQ(serial.orphan_rate.stddev, parallel.orphan_rate.stddev);
  EXPECT_EQ(serial.duration.mean, parallel.duration.mean);
  EXPECT_EQ(serial.canonical_length.mean, parallel.canonical_length.mean);
}

TEST(SimReplicas, AddingReplicasPreservesPrefix) {
  const NetworkConfig config = small_config();
  ReplicaOptions few = small_options(2);
  few.replicas = 3;
  ReplicaOptions many = small_options(2);
  many.replicas = 6;
  const ReplicaSetResult a = run_replicas(config, few);
  const ReplicaSetResult b = run_replicas(config, many);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.replicas[i], b.replicas[i]) << "replica " << i;
  }
}

TEST(SimReplicas, RecordRoundTripsThroughJournal) {
  const NetworkConfig config = small_config();
  ReplicaOptions options = small_options(1);
  options.replicas = 2;
  const ReplicaSetResult direct = run_replicas(config, options);

  const std::string key = replica_key(config, options.blocks, options.seed, 1);
  const robust::CheckpointRecord record =
      sim_record(key, direct.replicas[1]);
  NetworkResult restored;
  ASSERT_TRUE(sim_restore(record, restored));
  EXPECT_EQ(restored, direct.replicas[1]);

  // Foreign/truncated records degrade to recompute, never to wrong data.
  robust::CheckpointRecord foreign = record;
  foreign.values.clear();
  NetworkResult untouched;
  EXPECT_FALSE(sim_restore(foreign, untouched));
}

TEST(SimReplicas, ResumeFromJournalMatchesFreshRun) {
  const NetworkConfig config = small_config();
  const std::string path = temp_journal_path("bvc_sim_replicas_test.jsonl");
  std::filesystem::remove(path);

  const ReplicaSetResult fresh = run_replicas(config, small_options(2));
  {
    // First pass journals a prefix: fewer replicas under the same seed
    // (replica keys are index-based, so they are the fresh run's first 3).
    robust::CheckpointJournal journal(path);
    ReplicaOptions options = small_options(2);
    options.replicas = 3;
    options.journal = &journal;
    (void)run_replicas(config, options);
    ASSERT_TRUE(journal.flush());
  }
  {
    // Second pass resumes: journaled replicas restore, the rest compute.
    robust::CheckpointJournal journal(path);
    ASSERT_EQ(journal.load(), 3u);
    ReplicaOptions options = small_options(2);
    options.journal = &journal;
    const ReplicaSetResult resumed = run_replicas(config, options);
    ASSERT_EQ(resumed.replicas.size(), fresh.replicas.size());
    for (std::size_t i = 0; i < fresh.replicas.size(); ++i) {
      EXPECT_EQ(resumed.replicas[i], fresh.replicas[i]) << "replica " << i;
    }
    EXPECT_EQ(resumed.report.items_resumed, 3u);
    EXPECT_EQ(journal.appended(), 3u);
    EXPECT_EQ(resumed.orphan_rate.mean, fresh.orphan_rate.mean);
  }
  std::filesystem::remove(path);
}

TEST(SimReplicas, KeysDependOnEveryInput) {
  const NetworkConfig config = small_config();
  const std::string base = replica_key(config, 300, 2024, 0);
  EXPECT_NE(base, replica_key(config, 300, 2024, 1));
  EXPECT_NE(base, replica_key(config, 301, 2024, 0));
  EXPECT_NE(base, replica_key(config, 300, 2025, 0));
  NetworkConfig other = small_config();
  other.miners[0].power = 0.41;
  other.miners[1].power = 0.34;
  EXPECT_NE(base, replica_key(other, 300, 2024, 0));
  // A miner's message limit: above it the miner rejects a block outright.
  NetworkConfig capped = small_config();
  capped.miners[1].rule.eb = chain::kMegabyte;
  NetworkConfig tighter = capped;
  tighter.miners[1].rule.message_limit = chain::kMegabyte;
  EXPECT_NE(replica_key(capped, 300, 2024, 0),
            replica_key(tighter, 300, 2024, 0));
  // The relay-only nodes' message limit.
  NetworkConfig relay = small_config();
  RandomTopologyConfig graph;
  graph.nodes = 8;
  relay.topology = random_topology(graph);
  NetworkConfig relay_tighter = relay;
  relay_tighter.relay_rule.message_limit = chain::kMegabyte;
  EXPECT_NE(replica_key(relay, 300, 2024, 0),
            replica_key(relay_tighter, 300, 2024, 0));
  // At its default the limit leaves keys as they were before it was keyed.
  EXPECT_EQ(base, "netsim|cfg=b9fbee373690e776|blocks=300|seed=2024|rep=0");
  EXPECT_EQ(replica_key(relay, 300, 2024, 0),
            "netsim|cfg=f2b3d73abdd58513|blocks=300|seed=2024|rep=0");
}

TEST(SimReplicas, SummarizeComputesSpread) {
  const double values[] = {1.0, 2.0, 3.0, 4.0};
  const SummaryStat stat = summarize(values);
  EXPECT_EQ(stat.count, 4u);
  EXPECT_DOUBLE_EQ(stat.mean, 2.5);
  EXPECT_NEAR(stat.stddev, 1.2909944487358056, 1e-12);
  EXPECT_DOUBLE_EQ(stat.min, 1.0);
  EXPECT_DOUBLE_EQ(stat.max, 4.0);
  const SummaryStat one = summarize(std::span<const double>(values, 1));
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
}

TEST(SimReplicas, BudgetStopsAreNotAggregated) {
  const NetworkConfig config = small_config();
  ReplicaOptions options = small_options(1);
  // The batch budget counts items started: only 3 of the 6 replicas run.
  options.batch.control.budget.max_ticks = 3;
  const ReplicaSetResult result = run_replicas(config, options);
  EXPECT_NE(result.report.status, robust::RunStatus::kConverged);
  EXPECT_EQ(result.report.items_skipped, 3u);
  // Skipped replicas are excluded from the summary statistics.
  EXPECT_EQ(result.orphan_rate.count, 3u);
}

}  // namespace
