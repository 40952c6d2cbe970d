#include "sim/replicas.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "mdp/model_cache.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bvc::sim {

namespace {

/// FNV-1a 64: a fast, stable digest for the (potentially huge, topology-
/// sized) config signature so replica keys stay journal-line sized.
std::uint64_t fnv1a(const std::string& text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void append_params(std::string& out, const chain::BuParams& rule) {
  mdp::append_key(out, "eb", static_cast<std::int64_t>(rule.eb));
  mdp::append_key(out, "mg", static_cast<std::int64_t>(rule.mg));
  mdp::append_key(out, "ad", static_cast<std::int64_t>(rule.ad));
  mdp::append_key(out, "sticky", rule.sticky_gate);
  mdp::append_key(out, "gp", static_cast<std::int64_t>(rule.gate_period));
  // Keyed only off its default, so keys (and journals) written before it
  // was keyed stay byte-identical.
  if (rule.message_limit != chain::kMessageLimit) {
    mdp::append_key(out, "ml", static_cast<std::int64_t>(rule.message_limit));
  }
}

}  // namespace

std::uint64_t replica_seed(std::uint64_t base_seed,
                           std::size_t replica) noexcept {
  // Golden-ratio stride into splitmix64: well-spread substreams whose
  // identity depends only on (base, index).
  std::uint64_t state =
      base_seed ^
      (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(replica) + 1));
  return splitmix64(state);
}

std::string network_config_signature(const NetworkConfig& config) {
  std::string out = "netsim";
  mdp::append_key(out, "interval", config.block_interval);
  mdp::append_key(out, "nminers",
                  static_cast<std::int64_t>(config.miners.size()));
  for (const NetMiner& miner : config.miners) {
    mdp::append_key(out, "power", miner.power);
    mdp::append_key(out, "size", static_cast<std::int64_t>(miner.block_size));
    mdp::append_key(out, "bw", miner.bandwidth);
    mdp::append_key(out, "lat", miner.latency);
    append_params(out, miner.rule);
  }
  const robust::FaultPlan& faults = config.faults;
  mdp::append_key(out, "fseed", static_cast<std::int64_t>(faults.seed));
  mdp::append_key(out, "fdrop", faults.link.drop_probability);
  mdp::append_key(out, "fdup", faults.link.duplicate_probability);
  mdp::append_key(out, "fjit", faults.link.jitter_seconds);
  for (const robust::LinkFaultOverride& o : faults.link_overrides) {
    mdp::append_key(out, "ofrom", static_cast<std::int64_t>(o.from));
    mdp::append_key(out, "oto", static_cast<std::int64_t>(o.to));
    mdp::append_key(out, "odrop", o.fault.drop_probability);
    mdp::append_key(out, "odup", o.fault.duplicate_probability);
    mdp::append_key(out, "ojit", o.fault.jitter_seconds);
  }
  for (const robust::CrashWindow& w : faults.crashes) {
    mdp::append_key(out, "cnode", static_cast<std::int64_t>(w.node));
    mdp::append_key(out, "cbegin", w.begin);
    mdp::append_key(out, "cend", w.end);
  }
  for (const robust::PartitionWindow& w : faults.partitions) {
    mdp::append_key(out, "pbegin", w.begin);
    mdp::append_key(out, "pend", w.end);
    for (const std::size_t node : w.island) {
      mdp::append_key(out, "pnode", static_cast<std::int64_t>(node));
    }
  }
  mdp::append_key(out, "nodes",
                  static_cast<std::int64_t>(config.topology.num_nodes()));
  for (const std::vector<Link>& links : config.topology.adjacency) {
    mdp::append_key(out, "deg", static_cast<std::int64_t>(links.size()));
    for (const Link& link : links) {
      mdp::append_key(out, "to", static_cast<std::int64_t>(link.to));
      mdp::append_key(out, "llat", link.latency);
      mdp::append_key(out, "lbw", link.bandwidth);
    }
  }
  for (const std::uint32_t node : config.miner_nodes) {
    mdp::append_key(out, "mnode", static_cast<std::int64_t>(node));
  }
  if (!config.topology.empty()) {
    append_params(out, config.relay_rule);
  }
  mdp::append_key(out, "compact", config.relay.compact);
  if (config.relay.compact) {
    mdp::append_key(out, "overhead", config.relay.overhead_bytes);
    mdp::append_key(out, "fraction", config.relay.fraction);
  }
  return out;
}

std::string replica_key(const NetworkConfig& config, std::uint64_t blocks,
                        std::uint64_t seed, std::size_t replica) {
  char digest[32];
  std::snprintf(digest, sizeof(digest), "netsim|cfg=%016llx",
                static_cast<unsigned long long>(
                    fnv1a(network_config_signature(config))));
  std::string key = digest;
  mdp::append_key(key, "blocks", static_cast<std::int64_t>(blocks));
  mdp::append_key(key, "seed", static_cast<std::int64_t>(seed));
  mdp::append_key(key, "rep", static_cast<std::int64_t>(replica));
  return key;
}

robust::CheckpointRecord sim_record(const std::string& key,
                                    const NetworkResult& result) {
  robust::CheckpointRecord record;
  record.key = key;
  record.status = result.status;
  record.values = {
      {"blocks_mined", static_cast<double>(result.blocks_mined)},
      {"duration", result.duration},
      {"canonical_length", static_cast<double>(result.canonical_length)},
      {"orphaned_blocks", static_cast<double>(result.orphaned_blocks)},
      {"dropped_messages", static_cast<double>(result.dropped_messages)},
      {"duplicated_messages",
       static_cast<double>(result.duplicated_messages)},
      {"deferred_deliveries",
       static_cast<double>(result.deferred_deliveries)},
      {"wasted_finds", static_cast<double>(result.wasted_finds)},
      {"relayed_messages", static_cast<double>(result.relayed_messages)},
      {"miners", static_cast<double>(result.mined_per_miner.size())},
  };
  char name[48];
  for (std::size_t i = 0; i < result.mined_per_miner.size(); ++i) {
    std::snprintf(name, sizeof(name), "mined.%zu", i);
    record.values.emplace_back(name,
                               static_cast<double>(result.mined_per_miner[i]));
    std::snprintf(name, sizeof(name), "locked.%zu", i);
    record.values.emplace_back(
        name, static_cast<double>(result.locked_per_miner[i]));
    std::snprintf(name, sizeof(name), "orphaned.%zu", i);
    record.values.emplace_back(
        name, static_cast<double>(result.orphaned_per_miner[i]));
  }
  return record;
}

bool sim_restore(const robust::CheckpointRecord& record,
                 NetworkResult& result) {
  if (!record.has_value("blocks_mined") || !record.has_value("duration") ||
      !record.has_value("miners")) {
    return false;
  }
  const auto miners =
      static_cast<std::size_t>(record.value_or("miners", 0.0));
  NetworkResult restored;
  restored.status = record.status;
  restored.blocks_mined =
      static_cast<std::uint64_t>(record.value_or("blocks_mined", 0.0));
  restored.duration = record.value_or("duration", 0.0);
  restored.canonical_length =
      static_cast<std::uint64_t>(record.value_or("canonical_length", 0.0));
  restored.orphaned_blocks =
      static_cast<std::uint64_t>(record.value_or("orphaned_blocks", 0.0));
  restored.dropped_messages =
      static_cast<std::uint64_t>(record.value_or("dropped_messages", 0.0));
  restored.duplicated_messages = static_cast<std::uint64_t>(
      record.value_or("duplicated_messages", 0.0));
  restored.deferred_deliveries = static_cast<std::uint64_t>(
      record.value_or("deferred_deliveries", 0.0));
  restored.wasted_finds =
      static_cast<std::uint64_t>(record.value_or("wasted_finds", 0.0));
  restored.relayed_messages =
      static_cast<std::uint64_t>(record.value_or("relayed_messages", 0.0));
  restored.mined_per_miner.resize(miners);
  restored.locked_per_miner.resize(miners);
  restored.orphaned_per_miner.resize(miners);
  char mined_name[48];
  char locked_name[48];
  char orphaned_name[48];
  for (std::size_t i = 0; i < miners; ++i) {
    std::snprintf(mined_name, sizeof(mined_name), "mined.%zu", i);
    std::snprintf(locked_name, sizeof(locked_name), "locked.%zu", i);
    std::snprintf(orphaned_name, sizeof(orphaned_name), "orphaned.%zu", i);
    if (!record.has_value(mined_name) || !record.has_value(locked_name) ||
        !record.has_value(orphaned_name)) {
      return false;
    }
    restored.mined_per_miner[i] =
        static_cast<std::uint64_t>(record.value_or(mined_name, 0.0));
    restored.locked_per_miner[i] =
        static_cast<std::uint64_t>(record.value_or(locked_name, 0.0));
    restored.orphaned_per_miner[i] =
        static_cast<std::uint64_t>(record.value_or(orphaned_name, 0.0));
  }
  result = std::move(restored);
  return true;
}

SummaryStat summarize(std::span<const double> values) {
  SummaryStat stat;
  stat.count = values.size();
  if (values.empty()) {
    return stat;
  }
  stat.min = values.front();
  stat.max = values.front();
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
    stat.min = std::min(stat.min, v);
    stat.max = std::max(stat.max, v);
  }
  stat.mean = sum / static_cast<double>(values.size());
  if (values.size() > 1) {
    double ss = 0.0;
    for (const double v : values) {
      ss += (v - stat.mean) * (v - stat.mean);
    }
    stat.stddev = std::sqrt(ss / static_cast<double>(values.size() - 1));
    stat.ci95_half =
        1.96 * stat.stddev / std::sqrt(static_cast<double>(values.size()));
  }
  return stat;
}

ReplicaSetResult run_replicas(const NetworkConfig& config,
                              const ReplicaOptions& options) {
  // One shared simulation object: run() is const and touches only run-local
  // state, so concurrent replicas need no copies of (potentially large)
  // topologies.
  const NetworkSimulation simulation(config);

  mdp::CellBatch<NetworkResult> cells = mdp::run_cells<NetworkResult>(
      options.replicas, options.batch, options.journal,
      [&](std::size_t i, const robust::RunControl& control) {
        obs::Span span("sim.replica", "sim");
        span.arg("replica", static_cast<std::int64_t>(i));
        Rng rng(replica_seed(options.seed, i));
        NetworkResult result = simulation.run(options.blocks, rng, control);
        span.arg("status", robust::to_string(result.status));
        return result;
      },
      {.key =
           [&](std::size_t i) {
             return replica_key(config, options.blocks, options.seed, i);
           },
       .record = sim_record,
       .restore = sim_restore});
  ReplicaSetResult out;
  out.replicas = std::move(cells.results);
  out.report = cells.report;

  // Aggregates over the converged replicas, in input order — a
  // deterministic function of the replica set alone. Budget-skipped
  // replicas fail the status test.
  std::vector<double> orphan_rates;
  std::vector<double> durations;
  std::vector<double> lengths;
  for (std::size_t i = 0; i < options.replicas; ++i) {
    if (out.replicas[i].status != robust::RunStatus::kConverged) {
      continue;
    }
    orphan_rates.push_back(out.replicas[i].orphan_rate());
    durations.push_back(out.replicas[i].duration);
    lengths.push_back(static_cast<double>(out.replicas[i].canonical_length));
  }
  out.orphan_rate = summarize(orphan_rates);
  out.duration = summarize(durations);
  out.canonical_length = summarize(lengths);
  return out;
}

}  // namespace bvc::sim
