// Monte-Carlo exercise of the countermeasure: miner cohorts with block-size
// preferences vote honestly or adversarially; we track how the limit evolves
// and verify that every node derives the same limit at every height.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "counter/dynamic_limit.hpp"
#include "mdp/batch.hpp"
#include "mdp/solve_report.hpp"
#include "robust/run_control.hpp"
#include "util/rng.hpp"

namespace bvc::counter {

struct VoterCohort {
  double power = 0.0;          ///< share of blocks this cohort mines
  ByteSize preferred_limit = 0;  ///< votes kIncrease below, kDecrease above
  /// An adversarial cohort votes the *opposite* of its preference, trying to
  /// push the limit where other participants cannot follow.
  bool adversarial = false;
};

struct VotingSimConfig {
  VoteRuleConfig rule;
  std::vector<VoterCohort> cohorts;  ///< powers must sum to 1
};

/// The base report carries how the run ended: kConverged when every
/// requested epoch completed, kBudgetExhausted / kCancelled when the
/// caller's RunControl stopped the block loop early — the counters
/// then reflect the blocks actually simulated (a usable partial trace).
/// `iterations` counts *started* epochs.
struct VotingSimResult : mdp::SolveReport {
  std::vector<ByteSize> limit_per_epoch;  ///< limit at each epoch start
  ByteSize final_limit = 0;
  std::size_t increases = 0;
  std::size_t decreases = 0;
  std::uint64_t blocks = 0;
};

/// Runs `epochs` full difficulty periods. Each block's miner is drawn by
/// power; the miner votes according to its cohort policy given the limit in
/// force when the block is mined. `control` bounds/cancels the run (one
/// guard tick per block).
[[nodiscard]] VotingSimResult run_voting_simulation(
    const VotingSimConfig& config, std::size_t epochs, Rng& rng,
    const robust::RunControl& control = {});

/// One simulation in a batched sweep. Each job owns a private RNG seed, so
/// batch results are a pure function of the job list (input-ordered and
/// thread-count-independent, like every mdp::run_batch client). Each runs
/// under the batch's shared budget (set budgets on BatchConfig::control).
struct VotingJob {
  VotingSimConfig config;
  std::size_t epochs = 1;
  std::uint64_t seed = 0;
};

/// Canonical checkpoint key of one simulation cell: every input the result
/// is a pure function of — the vote rule, the cohort roster, epochs, and
/// the RNG seed.
[[nodiscard]] std::string voting_job_key(const VotingJob& job);

/// Runs every job through mdp::run_cells (each with Rng(job.seed)). Items
/// skipped by the shared budget carry status kBudgetExhausted / kCancelled
/// and empty traces. With a `journal`, completed cells are journaled
/// (including the per-epoch limit trace) and restored instead of re-run.
[[nodiscard]] std::vector<VotingSimResult> run_voting_batch(
    std::span<const VotingJob> jobs, const mdp::BatchConfig& batch = {},
    robust::CheckpointJournal* journal = nullptr);

/// Journal (de)serialization of one simulation cell. The per-epoch limit
/// trace is stored as repeated "limit_per_epoch" values (order preserved).
[[nodiscard]] robust::CheckpointRecord voting_record(
    const std::string& key, const VotingSimResult& result);
[[nodiscard]] bool voting_restore(const robust::CheckpointRecord& record,
                                  VotingSimResult& result);

}  // namespace bvc::counter
