// Cross-validation harness (V1 in DESIGN.md): replays MDP-optimal policies
// on the chain-semantics simulator with step-by-step model checking enabled
// and compares the Monte-Carlo utility estimates with the analytic optima,
// for all three utilities and both settings.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "bu/attack_analysis.hpp"
#include "sim/attack_scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {
using namespace bvc;
}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bench_crossval", "MDP optima vs chain-semantics simulator cross-validation");
  bench::add_threads_arg(parser);
  bench::add_obs_args(parser);
  const util::ParsedArgs args = parser.parse(argc, argv);
  bench::ObsSession obs(args);
  const mdp::BatchConfig batch = bench::batch_config_from_args(args);
  std::printf(
      "MDP <-> chain-semantics cross-validation (every step checked: any\n"
      "divergence between the abstract model and the per-node validity\n"
      "rules throws)\n\n");

  TextTable table({"utility", "setting", "analytic", "simulated (1M blocks)",
                   "forks", "gate openings"});

  struct Case {
    bu::Utility utility;
    bu::Setting setting;
  };
  const Case cases[] = {
      {bu::Utility::kRelativeRevenue, bu::Setting::kNoStickyGate},
      {bu::Utility::kRelativeRevenue, bu::Setting::kStickyGate},
      {bu::Utility::kAbsoluteReward, bu::Setting::kNoStickyGate},
      {bu::Utility::kAbsoluteReward, bu::Setting::kStickyGate},
      {bu::Utility::kOrphaning, bu::Setting::kNoStickyGate},
      {bu::Utility::kOrphaning, bu::Setting::kStickyGate},
  };

  // The six analytic solves run as one batch; the (deterministic,
  // single-RNG-stream) simulation replays stay serial so the Monte-Carlo
  // numbers are identical for every --threads value.
  std::vector<bu::AnalysisJob> jobs;
  for (const Case& c : cases) {
    bu::AttackParams params;
    params.alpha = 0.20;
    params.beta = 0.32;
    params.gamma = 0.48;
    params.setting = c.setting;
    params.gate_period = 36;  // shorter than 144 to visit phase 2 often
    jobs.push_back({params, c.utility});
  }
  const std::vector<bu::AnalysisResult> analyses =
      bu::analyze_batch(jobs, {}, batch);

  Rng rng(424242);
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    const bu::AnalysisResult& analysis = analyses[i];
    bench::require_solved(analysis,
                          std::string(bu::to_string(c.utility)) + " setting " +
                              (c.setting == bu::Setting::kNoStickyGate ? "1"
                                                                       : "2"),
                          /*fatal=*/false);

    const bu::AttackModel model =
        bu::build_attack_model(jobs[i].params, c.utility);
    sim::ScenarioOptions options;
    options.check_against_model = true;
    sim::AttackScenarioSim simulator(model, options);
    const sim::ScenarioResult result =
        simulator.run(analysis.policy, 1'000'000, rng);

    table.add_row({std::string(bu::to_string(c.utility)),
                   c.setting == bu::Setting::kNoStickyGate ? "1" : "2",
                   format_fixed(analysis.utility_value, 4),
                   format_fixed(result.utility_estimate, 4),
                   std::to_string(result.forks_started),
                   std::to_string(result.gate_openings)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "All rows ran with check_against_model=true: 6M block events were\n"
      "verified to produce exactly the state transitions and rewards the\n"
      "Table-1-style model predicts, from real per-node EB/AD/sticky-gate\n"
      "evaluations.\n");
  return 0;
}
