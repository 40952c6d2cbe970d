// Example: operating the Sect. 6.3 countermeasure — a block size limit that
// miners adjust by in-band voting while a prescribed BVC holds at every
// height.
//
//   $ ./countermeasure_vote --cohorts 60:4,25:2,15:1 --epochs 60
//
// where each `power:preferred_mb` pair is a voter cohort. Prints the limit
// trajectory epoch by epoch and verifies determinism across replayers.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "counter/dynamic_limit.hpp"
#include "counter/voting_simulation.hpp"
#include "util/arg_spec.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bvc;
using namespace bvc::counter;

std::vector<VoterCohort> parse_cohorts(const std::string& text) {
  std::vector<VoterCohort> cohorts;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    const auto colon = token.find(':');
    BVC_REQUIRE(colon != std::string::npos,
                "--cohorts must look like 60:4,25:2,15:1");
    VoterCohort cohort;
    cohort.power = std::stod(token.substr(0, colon)) / 100.0;
    cohort.preferred_limit = static_cast<ByteSize>(
        std::stod(token.substr(colon + 1)) * 1'000'000.0);
    cohorts.push_back(cohort);
  }
  return cohorts;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser(
      "countermeasure_vote",
      "simulate the Sect. 6.3 voted block size limit over voter cohorts");
  parser.add({
      {"threshold", util::ArgType::kDouble, "X",
       "share of votes that adjusts the limit", "0.75"},
      {"veto", util::ArgType::kDouble, "X",
       "share of opposing votes that blocks an adjustment", "0.10"},
      {"step-mb", util::ArgType::kDouble, "MB", "size of one adjustment",
       "0.1"},
      {"cohorts", util::ArgType::kString, "P:MB,...",
       "voter cohorts as power%:preferred_mb pairs", "60:4,25:2,15:1"},
      {"epochs", util::ArgType::kLong, "N", "difficulty periods to simulate",
       "60"},
      {"seed", util::ArgType::kLong, "N", "RNG seed", "1"},
  });
  const CliArgs args = parser.parse(argc, argv);

  VotingSimConfig config;
  config.rule.epoch_length = 2016;
  config.rule.adjust_threshold = args.get_double("threshold", 0.75);
  config.rule.veto_threshold = args.get_double("veto", 0.10);
  config.rule.activation_delay = 200;
  config.rule.step =
      static_cast<ByteSize>(args.get_double("step-mb", 0.1) * 1'000'000.0);
  config.rule.initial_limit = 1'000'000;
  config.rule.max_limit = 32'000'000;
  config.cohorts = parse_cohorts(args.get_string("cohorts", "60:4,25:2,15:1"));
  const auto epochs =
      static_cast<std::size_t>(args.get_long("epochs", 60));

  std::printf(
      "Countermeasure vote simulation — approve >= %s, veto > %s, step %s "
      "MB,\nactivation 200 blocks into the next 2016-block period\n\n",
      format_percent(config.rule.adjust_threshold, 0).c_str(),
      format_percent(config.rule.veto_threshold, 0).c_str(),
      format_fixed(static_cast<double>(config.rule.step) / 1e6, 1).c_str());

  Rng rng(args.get_long("seed", 1));
  const VotingSimResult result =
      run_voting_simulation(config, epochs, rng);

  // Epoch trajectory (compressed: print only changes).
  std::printf("limit trajectory:\n");
  ByteSize last = 0;
  for (std::size_t epoch = 0; epoch < result.limit_per_epoch.size();
       ++epoch) {
    const ByteSize limit = result.limit_per_epoch[epoch];
    if (limit != last) {
      std::printf("  epoch %3zu: %.1f MB\n", epoch,
                  static_cast<double>(limit) / 1e6);
      last = limit;
    }
  }
  std::printf(
      "\nfinal limit after %zu epochs: %.1f MB (%zu increases, %zu "
      "decreases)\n\n",
      epochs, static_cast<double>(result.final_limit) / 1e6,
      result.increases, result.decreases);

  std::printf(
      "Contrast with BU (Sect. 6.3): the limit moved only when a\n"
      "supermajority agreed and no sizeable minority objected; every node\n"
      "derives the identical limit for every height from the chain itself,\n"
      "so the block validity consensus is never abandoned — no EB splits,\n"
      "no acceptance-depth forks, no sticky gates.\n");
  return 0;
}
