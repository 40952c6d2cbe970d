// Exercises the Sect. 6.3 countermeasure: miners vote for/against a block
// size increase inside their blocks; per 2016-block period the limit moves
// by a fixed step when the vote clears an approval threshold and stays
// under a veto threshold, activating only 200 blocks into the next period.
//
// Scenarios:
//  1. A supermajority that wants bigger blocks grows the limit gradually.
//  2. A >10% minority that cannot handle bigger blocks vetoes the change
//     (unlike BU's block size increasing game, small miners keep a voice).
//  3. An adversarial cohort biases votes but can never split validity: two
//     independent replayers agree on the limit at every height.
//
// The scenarios run through counter::run_voting_batch (each with a private
// RNG seed) under the shared --threads / --wall-clock-ms / --max-ticks
// flags, so the table is identical for every thread count.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "counter/dynamic_limit.hpp"
#include "counter/voting_simulation.hpp"
#include "sweep_session.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {
using namespace bvc;
using namespace bvc::counter;
}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bench_countermeasure", "Block-size-increase voting countermeasure study (Sect. 6.3)");
  bench::add_standard_bench_args(parser);
  bench::add_sweep_args(parser);
  const util::ParsedArgs args = parser.parse(argc, argv);
  bench::ObsSession obs(args);
  bench::SweepSession sweep(args, obs, "bench_countermeasure");
  const mdp::BatchConfig batch = bench::batch_config_from_args(args);

  VoteRuleConfig rule;  // paper-scale: 2016-block epochs, 200-block delay
  rule.epoch_length = 2016;
  rule.adjust_threshold = 0.75;
  rule.veto_threshold = 0.10;
  rule.activation_delay = 200;
  rule.step = 100'000;
  rule.initial_limit = 1'000'000;
  rule.max_limit = 8'000'000;

  std::printf(
      "Countermeasure (Sect. 6.3): dynamically adjustable limit with a\n"
      "prescribed BVC (epoch 2016, approve >= 75%%, veto > 10%%, "
      "activation +200)\n\n");

  std::vector<const char*> names;
  std::vector<VotingJob> jobs;
  Rng seed_rng(63);
  const auto scenario = [&](const char* name,
                            std::vector<VoterCohort> cohorts,
                            std::size_t epochs) {
    VotingJob job;
    job.config.rule = rule;
    job.config.cohorts = std::move(cohorts);
    job.epochs = epochs;
    job.seed = seed_rng.next_u64();
    names.push_back(name);
    jobs.push_back(std::move(job));
  };

  scenario("1. 90% want 4 MB, 10% happy at 1 MB",
           {{0.90, 4'000'000, false}, {0.10, 1'000'000, false}}, 40);
  scenario("2. 80% want 4 MB, 20% veto",
           {{0.80, 4'000'000, false}, {0.20, 1'000'000, false}}, 40);
  scenario("3. 85% want 2 MB, 15% adversarial",
           {{0.85, 2'000'000, false}, {0.15, 2'000'000, true}}, 40);
  scenario("4. consensus shrinks back to 0.5 MB",
           {{1.0, 500'000, false}}, 20);

  const std::vector<VotingSimResult> results =
      run_voting_batch(jobs, batch, sweep.journal());

  TextTable table({"scenario", "epochs", "final limit", "increases",
                   "decreases"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const VotingSimResult& result = results[i];
    bench::require_solved(result, std::string(names[i]), /*fatal=*/false);
    table.add_row({names[i], std::to_string(jobs[i].epochs),
                   format_fixed(static_cast<double>(result.final_limit) / 1e6,
                                1) +
                       " MB",
                   std::to_string(result.increases),
                   std::to_string(result.decreases)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // BVC preservation: two independent nodes replaying the same votes agree
  // at every height — by construction the limit is a pure function of the
  // chain, so a prescribed BVC holds while the rules adjust.
  DynamicLimitTracker node_a(rule);
  DynamicLimitTracker node_b(rule);
  Rng vote_rng(7);
  bool agree = true;
  for (int i = 0; i < 50 * 2016; ++i) {
    const auto vote = static_cast<Vote>(vote_rng.next_below(3));
    agree = agree && node_a.on_block(vote) == node_b.on_block(vote);
  }
  std::printf(
      "BVC check: two replayers across 50 epochs of random votes agree at\n"
      "every height: %s (adjustments applied: %zu)\n",
      agree ? "YES" : "NO", node_a.adjustments().size());
  return 0;
}
