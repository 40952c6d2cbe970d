#include "counter/voting_simulation.hpp"

#include <cmath>

#include "mdp/model_cache.hpp"
#include "util/check.hpp"

namespace bvc::counter {

namespace {
Vote cohort_vote(const VoterCohort& cohort, ByteSize current_limit) {
  Vote honest = Vote::kAbstain;
  if (current_limit < cohort.preferred_limit) {
    honest = Vote::kIncrease;
  } else if (current_limit > cohort.preferred_limit) {
    honest = Vote::kDecrease;
  }
  if (!cohort.adversarial) {
    return honest;
  }
  switch (honest) {
    case Vote::kIncrease:
      return Vote::kDecrease;
    case Vote::kDecrease:
      return Vote::kIncrease;
    case Vote::kAbstain:
      return Vote::kIncrease;  // an adversary pushes the limit upward
  }
  return Vote::kAbstain;
}
}  // namespace

VotingSimResult run_voting_simulation(const VotingSimConfig& config,
                                      std::size_t epochs, Rng& rng,
                                      const robust::RunControl& control) {
  BVC_REQUIRE(!config.cohorts.empty(), "the simulation needs voters");
  std::vector<double> weights;
  double total = 0.0;
  for (const VoterCohort& cohort : config.cohorts) {
    BVC_REQUIRE(cohort.power > 0.0, "cohort power must be positive");
    weights.push_back(cohort.power);
    total += cohort.power;
  }
  BVC_REQUIRE(std::abs(total - 1.0) < 1e-9, "cohort powers must sum to 1");

  CategoricalSampler sampler(weights);
  DynamicLimitTracker tracker(config.rule);

  // One tick per block; stride the deadline check so an unlimited budget
  // costs nothing in this per-block hot loop.
  robust::RunGuard guard(control, /*clock_stride=*/256);
  VotingSimResult result;
  result.status = robust::RunStatus::kConverged;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    result.limit_per_epoch.push_back(tracker.current_limit());
    ++result.iterations;
    for (Height i = 0; i < config.rule.epoch_length; ++i) {
      if (const auto stop = guard.tick()) {
        result.status = *stop;
        break;
      }
      const std::size_t who = sampler.sample(rng);
      const Vote vote =
          cohort_vote(config.cohorts[who], tracker.current_limit());
      tracker.on_block(vote);
      ++result.blocks;
    }
    if (result.status != robust::RunStatus::kConverged) {
      break;
    }
  }
  result.final_limit = tracker.current_limit();
  for (const auto& adjustment : tracker.adjustments()) {
    if (adjustment.increase) {
      ++result.increases;
    } else {
      ++result.decreases;
    }
  }
  result.wall_clock_ns = guard.elapsed_ns();
  return result;
}

std::string voting_job_key(const VotingJob& job) {
  const VoteRuleConfig& rule = job.config.rule;
  std::string key = "voting-sim";
  mdp::append_key(key, "epoch_len", static_cast<std::int64_t>(rule.epoch_length));
  mdp::append_key(key, "adjust", rule.adjust_threshold);
  mdp::append_key(key, "veto", rule.veto_threshold);
  mdp::append_key(key, "delay",
                  static_cast<std::int64_t>(rule.activation_delay));
  mdp::append_key(key, "step", static_cast<std::int64_t>(rule.step));
  mdp::append_key(key, "init", static_cast<std::int64_t>(rule.initial_limit));
  mdp::append_key(key, "min", static_cast<std::int64_t>(rule.min_limit));
  mdp::append_key(key, "max", static_cast<std::int64_t>(rule.max_limit));
  for (const VoterCohort& cohort : job.config.cohorts) {
    mdp::append_key(key, "pow", cohort.power);
    mdp::append_key(key, "pref",
                    static_cast<std::int64_t>(cohort.preferred_limit));
    mdp::append_key(key, "adv", cohort.adversarial);
  }
  mdp::append_key(key, "epochs", static_cast<std::int64_t>(job.epochs));
  mdp::append_key(key, "seed", static_cast<std::int64_t>(job.seed));
  return key;
}

robust::CheckpointRecord voting_record(const std::string& key,
                                       const VotingSimResult& result) {
  robust::CheckpointRecord record;
  record.key = key;
  record.status = result.status;
  record.values = {
      {"final_limit", static_cast<double>(result.final_limit)},
      {"increases", static_cast<double>(result.increases)},
      {"decreases", static_cast<double>(result.decreases)},
      {"blocks", static_cast<double>(result.blocks)},
      {"iterations", static_cast<double>(result.iterations)},
      {"wall_clock_ns", static_cast<double>(result.wall_clock_ns)},
  };
  for (const ByteSize limit : result.limit_per_epoch) {
    record.values.emplace_back("limit_per_epoch", static_cast<double>(limit));
  }
  return record;
}

bool voting_restore(const robust::CheckpointRecord& record,
                    VotingSimResult& result) {
  if (!record.has_value("final_limit") || !record.has_value("blocks")) {
    return false;
  }
  result = VotingSimResult{};
  result.status = record.status;
  result.final_limit =
      static_cast<ByteSize>(record.value_or("final_limit", 0.0));
  result.increases =
      static_cast<std::size_t>(record.value_or("increases", 0.0));
  result.decreases =
      static_cast<std::size_t>(record.value_or("decreases", 0.0));
  result.blocks = static_cast<std::uint64_t>(record.value_or("blocks", 0.0));
  result.iterations = static_cast<int>(record.value_or("iterations", 0.0));
  result.wall_clock_ns =
      static_cast<std::int64_t>(record.value_or("wall_clock_ns", 0.0));
  for (const auto& [name, value] : record.values) {
    if (name == "limit_per_epoch") {
      result.limit_per_epoch.push_back(static_cast<ByteSize>(value));
    }
  }
  return true;
}

std::vector<VotingSimResult> run_voting_batch(
    std::span<const VotingJob> jobs, const mdp::BatchConfig& batch,
    robust::CheckpointJournal* journal) {
  return mdp::run_cells<VotingSimResult>(
             jobs.size(), batch, journal,
             [&](std::size_t i, const robust::RunControl& control) {
               Rng rng(jobs[i].seed);
               return run_voting_simulation(jobs[i].config, jobs[i].epochs,
                                            rng, control);
             },
             {.key = [&](std::size_t i) { return voting_job_key(jobs[i]); },
              .record = voting_record,
              .restore = voting_restore})
      .results;
}

}  // namespace bvc::counter
