// Regenerates Figure 3: one Alice block orphaning two compliant blocks.
//
// In the figure, Alice's size-EB_C block splits Bob and Carol; Carol mines
// two blocks on Chain 2 before Bob's Chain 1 outgrows it, so Carol's two
// blocks (plus Alice's trigger) are orphaned by a single Alice block. We
// first script that exact trace, then measure the long-run orphaning rate
// of the optimal non-profit-driven policy and compare it with the MDP.
#include <cstdio>

#include "bench_common.hpp"
#include "bu/attack_analysis.hpp"
#include "sim/attack_scenario.hpp"
#include "util/rng.hpp"

namespace {
using namespace bvc;
}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bench_fig3_orphans", "Regenerate Figure 3: one Alice block orphaning two blocks");
  bench::add_standard_bench_args(parser);
  const util::ParsedArgs args = parser.parse(argc, argv);
  bench::ObsSession obs(args);
  // ---- The scripted Figure 3 trace, via the abstract step semantics ------
  bu::AttackParams params;
  params.alpha = 0.01;
  params.beta = 0.596;  // beta:gamma ~ 3:2 as drawn
  params.gamma = 0.394;
  params.ad = 6;
  params.allow_wait = true;

  std::printf("Figure 3 — two compliant blocks orphaned by one Alice "
              "block\n\n");
  bu::AttackState state{};
  bu::Deltas totals;
  const auto step = [&](bu::Action action, bu::Event event,
                        const char* note) {
    const bu::StepResult result =
        bu::apply_event(params, state, action, event);
    totals.others_orphaned += result.deltas.others_orphaned;
    totals.alice_orphaned += result.deltas.alice_orphaned;
    std::printf("  %-12s %-18s %s -> %s\n",
                std::string(bu::to_string(action)).c_str(), note,
                bu::to_string(state).c_str(),
                bu::to_string(result.next).c_str());
    state = result.next;
  };

  step(bu::Action::kOnChain2, bu::Event::kAliceBlock,
       "Alice forks (EB_C)");
  step(bu::Action::kWait, bu::Event::kCarolBlock, "Carol on Chain 2");
  step(bu::Action::kWait, bu::Event::kCarolBlock, "Carol on Chain 2");
  step(bu::Action::kWait, bu::Event::kBobBlock, "Bob on Chain 1");
  step(bu::Action::kWait, bu::Event::kBobBlock, "Bob on Chain 1");
  step(bu::Action::kWait, bu::Event::kBobBlock, "Bob on Chain 1");
  step(bu::Action::kWait, bu::Event::kBobBlock,
       "Chain 1 outgrows: Carol switches");
  std::printf(
      "\n  => %.0f compliant blocks (and Alice's trigger) orphaned by "
      "Alice's single block\n\n",
      totals.others_orphaned);

  // ---- Long-run orphaning of the optimal policy, on chain semantics ------
  bu::AttackParams opt = params;
  opt.beta = 0.396;  // 2:3, the paper's worst case (u3 = 1.77)
  opt.gamma = 0.594;
  const bu::AttackModel model =
      bu::build_attack_model(opt, bu::Utility::kOrphaning);
  bu::AnalysisOptions analysis_options;
  analysis_options.control = bench::run_control_from_args(args);
  const bu::AnalysisResult analysis = bu::analyze(model, analysis_options);
  bench::require_solved(
      analysis,
      "u3 worst-case solve " +
          bench::describe_cell({{"alpha", opt.alpha},
                                {"gamma", opt.gamma},
                                {"AD", static_cast<double>(opt.ad)}}),
      /*fatal=*/false);

  sim::ScenarioOptions options;
  options.check_against_model = true;
  sim::AttackScenarioSim simulator(model, options);
  Rng rng(3);
  const sim::ScenarioResult sim_result =
      simulator.run(analysis.policy, 1'000'000, rng);

  std::printf(
      "Optimal non-profit-driven policy (alpha=1%%, beta:gamma=2:3, AD=6),\n"
      "replayed on chain semantics for 1M blocks:\n"
      "  u3 (compliant blocks orphaned per Alice block): %.3f\n"
      "  MDP optimum: %.3f   (paper Table 4: 1.77; Bitcoin bound: 1.00)\n",
      sim_result.utility_estimate, analysis.utility_value);
  return 0;
}
