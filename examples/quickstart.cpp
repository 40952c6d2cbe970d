// Quickstart: solve one instance of the paper's fork-attack MDP and inspect
// the optimal strategy.
//
//   $ ./quickstart --alpha 0.25 --beta 0.375 --gamma 0.375 --ad 6
//
// Walkthrough:
//   1. Describe the scenario (Alice/Bob/Carol powers, AD, setting).
//   2. Build the MDP for the compliant & profit-driven utility u1.
//   3. Solve for Alice's optimal strategy and compare with honest mining.
//   4. Print the policy at a few interesting states.
//   5. Confirm the value with a Monte-Carlo rollout.
#include <cstdio>

#include "bu/attack_analysis.hpp"
#include "util/arg_spec.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bvc;
  util::ArgParser parser("quickstart",
                         "solve one cell of the fork-attack MDP (utility u1)");
  parser.add({
      {"alpha", util::ArgType::kDouble, "X", "Alice's mining power", "0.25"},
      {"beta", util::ArgType::kDouble, "X", "Bob's (small EB) mining power",
       "0.375"},
      {"gamma", util::ArgType::kDouble, "X",
       "Carol's (large EB) mining power", "0.375"},
      {"ad", util::ArgType::kLong, "N", "acceptance depth", "6"},
      {"setting", util::ArgType::kLong, "1|2",
       "1 = no sticky gate, 2 = sticky gate", "1"},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);

  bu::AttackParams params;
  params.alpha = args.get_double("alpha", 0.25);
  params.beta = args.get_double("beta", 0.375);
  params.gamma = args.get_double("gamma", 0.375);
  params.ad = static_cast<unsigned>(args.get_long("ad", 6));
  params.setting = args.get_long("setting", 1) == 2
                       ? bu::Setting::kStickyGate
                       : bu::Setting::kNoStickyGate;

  std::printf(
      "BU fork-attack analysis (Zhang & Preneel, CoNEXT '17)\n"
      "  Alice (strategic): %s   Bob (EB small): %s   Carol (EB large): %s\n"
      "  AD = %u, setting %d\n\n",
      format_percent(params.alpha, 1).c_str(),
      format_percent(params.beta, 1).c_str(),
      format_percent(params.gamma, 1).c_str(), params.ad,
      params.setting == bu::Setting::kStickyGate ? 2 : 1);

  // 2. Build the model; 3. solve it.
  const bu::AttackModel model =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  std::printf("model: %s\n\n", model.compiled->summary().c_str());

  const bu::AnalysisResult result = bu::analyze(model);
  std::printf("solve: %s in %.2fs (%d Dinkelbach iterations, %d sweeps)\n",
              std::string(robust::to_string(result.status)).c_str(),
              result.diagnostics.elapsed_seconds,
              result.diagnostics.outer_iterations,
              static_cast<int>(result.diagnostics.inner_sweeps));
  if (!robust::is_success(result.status)) {
    std::fprintf(stderr,
                 "WARNING: the solve did not converge (status: %s); the "
                 "numbers below are best-effort bounds.\n",
                 std::string(robust::to_string(result.status)).c_str());
  }
  std::printf(
      "optimal relative revenue u1: %s (honest: %s)\n"
      "=> BU is %sincentive compatible for these parameters%s\n\n",
      format_percent(result.utility_value).c_str(),
      format_percent(result.honest_baseline).c_str(),
      result.attack_beats_honest ? "NOT " : "",
      result.attack_beats_honest
          ? ": a fully compliant miner profits from splitting the network"
          : "");

  // 4. The strategy at a few states.
  const auto show = [&](const bu::AttackState& state) {
    std::printf("  %-16s -> %s\n", bu::to_string(state).c_str(),
                std::string(bu::to_string(
                                bu::policy_action(model, result.policy,
                                                  state)))
                    .c_str());
  };
  std::printf("optimal actions (l1,l2,a1,a2|r):\n");
  show(bu::AttackState{});                // base: fork or mine honestly?
  show(bu::AttackState{0, 1, 0, 1, 0});   // fork just started
  if (params.ad >= 3) {
    show(bu::AttackState{1, 2, 0, 1, 0});  // Chain 1 catching up
    show(bu::AttackState{2, 2, 1, 1, 0});  // tied race
  }

  // 5. Monte-Carlo confirmation.
  Rng rng(42);
  const bu::RolloutResult rollout =
      bu::rollout_policy(model, result.policy, 1'000'000, rng);
  std::printf(
      "\nrollout over 1M blocks: u1 = %s (analytic %s)\n"
      "  Alice locked %.0f, others locked %.0f, orphaned %.0f blocks\n",
      format_percent(rollout.utility_estimate).c_str(),
      format_percent(result.utility_value).c_str(),
      rollout.totals.alice_locked, rollout.totals.others_locked,
      rollout.totals.total_orphaned());
  return 0;
}
