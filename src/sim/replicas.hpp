// Parallel Monte-Carlo replicas of the network simulation.
//
// run_replicas fans N independent replicas of one NetworkConfig across the
// batch engine (util::ThreadPool via mdp::run_cells): replica i draws from
// its own Rng substream derived from (seed, i), so its NetworkResult is a
// pure function of (config, blocks, seed, i) — bit-identical whatever the
// thread count or replica count, and input-ordered in the result vector.
// One shared robust::RunControl budget spans the whole set (the batch
// engine's budget semantics; docs/PARALLELISM.md).
//
// Crash safety rides the checkpoint layer: every finished replica is
// journaled as a robust::CheckpointRecord under a canonical replica key
// (config digest + blocks + seed + replica index), so simulation campaigns
// get --checkpoint/--resume through bench/sweep_session exactly like the
// solver benches, and the solve service streams/resumes them as `net-sim`
// jobs (docs/SERVICE.md).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mdp/batch.hpp"
#include "robust/checkpoint.hpp"
#include "sim/network_sim.hpp"

namespace bvc::sim {

/// The Rng seed of replica `replica` under base seed `base_seed`;
/// independent of the replica count, so adding replicas never changes the
/// existing ones.
[[nodiscard]] std::uint64_t replica_seed(std::uint64_t base_seed,
                                         std::size_t replica) noexcept;

/// Canonical textual encoding of every result-shaping NetworkConfig field
/// (miners, interval, faults, topology, relay policy). Two configs with
/// equal signatures produce bit-identical simulations.
[[nodiscard]] std::string network_config_signature(const NetworkConfig&);

/// Canonical checkpoint key of one replica: a digest of the config
/// signature plus (blocks, seed, replica). Budgets are deliberately not
/// part of the key — a replica that converged under one budget is the same
/// result under any other.
[[nodiscard]] std::string replica_key(const NetworkConfig& config,
                                      std::uint64_t blocks,
                                      std::uint64_t seed,
                                      std::size_t replica);

/// Serializes a finished replica for the checkpoint journal. All fields are
/// deterministic (no wall-clock), so a restored record compares equal to a
/// recomputed one.
[[nodiscard]] robust::CheckpointRecord sim_record(const std::string& key,
                                                  const NetworkResult& result);

/// Rebuilds a NetworkResult from a journaled record. Returns false (leaving
/// `result` untouched semantics-wise) for foreign or truncated records, so
/// a stale journal degrades to recompute, never to wrong results.
[[nodiscard]] bool sim_restore(const robust::CheckpointRecord& record,
                               NetworkResult& result);

/// Mean / spread summary of one per-replica statistic.
struct SummaryStat {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;     ///< sample standard deviation (n-1)
  double ci95_half = 0.0;  ///< 1.96 * stddev / sqrt(n)
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] SummaryStat summarize(std::span<const double> values);

struct ReplicaOptions {
  std::size_t replicas = 8;
  std::uint64_t blocks = 1000;
  /// Base seed; replica i runs on Rng(replica_seed(seed, i)).
  std::uint64_t seed = 42;
  /// Thread count and the shared budget/cancellation for the whole set.
  mdp::BatchConfig batch;
  /// Optional crash-safety journal (sim_record per finished replica);
  /// journaled replicas are restored instead of re-run.
  robust::CheckpointJournal* journal = nullptr;
};

struct ReplicaSetResult {
  /// Input-ordered, one per replica.
  std::vector<NetworkResult> replicas;
  mdp::BatchReport report;
  // Aggregates over the converged replicas:
  SummaryStat orphan_rate;
  SummaryStat duration;
  SummaryStat canonical_length;
};

/// Runs `options.replicas` independent replicas of `config` and aggregates
/// them. Thread-count- and replica-count-independent: replica i's result
/// (and the aggregate over any fixed replica set) is bit-identical at
/// --threads 1 and --threads N, resumed or not.
[[nodiscard]] ReplicaSetResult run_replicas(const NetworkConfig& config,
                                            const ReplicaOptions& options);

}  // namespace bvc::sim
