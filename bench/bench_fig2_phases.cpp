// Regenerates Figure 2: the two fork states of the attack.
//
//   Phase 1: Alice mines a block of size EB_C — Carol accepts it (Chain 2)
//            while Bob rejects it and stays on Chain 1.
//   Phase 2: Bob's sticky gate is open; Alice mines a block slightly larger
//            than EB_C — Bob accepts it (Chain 2) while Carol rejects it.
//
// We replay both splits on a real block tree with per-node validity rules
// and print each side's verdicts, then drive the full scenario simulator to
// show phase transitions occurring end-to-end.
#include <cstdio>

#include "bench_common.hpp"
#include "bu/attack_analysis.hpp"
#include "chain/block_tree.hpp"
#include "chain/bu_validity.hpp"
#include "sim/attack_scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using namespace bvc::chain;

const char* verdict_name(ChainVerdict verdict) {
  switch (verdict) {
    case ChainVerdict::kAcceptable:
      return "accepts";
    case ChainVerdict::kPendingDepth:
      return "REJECTS (pending depth)";
    case ChainVerdict::kInvalid:
      return "REJECTS (invalid)";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bench_fig2_phases", "Regenerate Figure 2: the two fork phases of the attack");
  bench::add_obs_args(parser);
  const util::ParsedArgs args = parser.parse(argc, argv);
  bench::ObsSession obs(args);
  constexpr ByteSize kEbBob = 1 * kMegabyte;
  constexpr ByteSize kEbCarol = 8 * kMegabyte;
  BuParams bob_params;
  bob_params.eb = kEbBob;
  bob_params.ad = 3;
  BuParams carol_params = bob_params;
  carol_params.eb = kEbCarol;
  const BuNodeRule bob(bob_params);
  const BuNodeRule carol(carol_params);

  std::printf("Figure 2 — the two fork phases (EB_B = 1 MB, EB_C = 8 MB, "
              "AD = 3)\n\n");

  // ---- Phase 1 ----------------------------------------------------------
  {
    BlockTree tree;
    const BlockId trigger = tree.add_block(tree.genesis(), kEbCarol, 0);
    std::printf("Phase 1: Alice mines a block of size exactly EB_C = 8 MB\n");
    std::printf("  Bob   %s\n",
                verdict_name(bob.evaluate(tree, trigger).verdict));
    std::printf("  Carol %s -> mines on Chain 2\n",
                verdict_name(carol.evaluate(tree, trigger).verdict));
    // Carol extends Chain 2 to the acceptance depth; Bob flips.
    BlockId tip = trigger;
    for (int i = 0; i < 2; ++i) {
      tip = tree.add_block(tip, kMegabyte, 2);
    }
    const ChainStatus after = bob.evaluate(tree, tip);
    std::printf(
        "  after AD-1 = 2 blocks on top: Bob %s; his sticky gate is %s\n\n",
        verdict_name(after.verdict), after.gate_open ? "OPEN" : "closed");
  }

  // ---- Phase 2 ----------------------------------------------------------
  {
    BlockTree tree;
    const BlockId trigger = tree.add_block(tree.genesis(), kEbCarol + 1, 0);
    std::printf(
        "Phase 2: Bob's gate is open; Alice mines a block of EB_C + 1 "
        "byte\n");
    const GateState open_gate{true, 0};
    std::printf("  Bob   %s (open gate: limit is the 32 MB message size)\n",
                verdict_name(bob.evaluate(tree, trigger, open_gate).verdict));
    std::printf("  Carol %s -> stays on Chain 1\n\n",
                verdict_name(carol.evaluate(tree, trigger).verdict));
  }

  // ---- End-to-end: phases emerging in the simulator ----------------------
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.ad = 4;
  params.gate_period = 16;
  params.setting = bu::Setting::kStickyGate;
  const bu::AttackModel model =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  const bu::AnalysisResult analysis = bu::analyze(model);
  bench::require_solved(
      analysis,
      "u1 phase-replay solve " +
          bench::describe_cell({{"alpha", params.alpha},
                                {"gamma", params.gamma},
                                {"AD", static_cast<double>(params.ad)}}),
      /*fatal=*/false);

  sim::ScenarioOptions options;
  options.eb_bob = kEbBob;
  options.eb_carol = kEbCarol;
  options.check_against_model = true;
  sim::AttackScenarioSim simulator(model, options);
  Rng rng(2017);
  const sim::ScenarioResult result =
      simulator.run(analysis.policy, 200'000, rng);

  std::printf(
      "Optimal attack replayed on chain semantics (alpha=25%%, "
      "beta:gamma=2:3,\nAD=4, gate period 16, 200k blocks):\n"
      "  forks started: %llu\n"
      "  Chain-1 wins:  %llu\n"
      "  Chain-2 wins (acceptance-depth takeovers): %llu\n"
      "  sticky-gate openings (phase-2 entries):    %llu\n"
      "  utility u1: %.4f (solver: %.4f) vs honest alpha = 0.2500\n",
      static_cast<unsigned long long>(result.forks_started),
      static_cast<unsigned long long>(result.chain1_wins),
      static_cast<unsigned long long>(result.chain2_wins),
      static_cast<unsigned long long>(result.gate_openings),
      result.utility_estimate, analysis.utility_value);
  return 0;
}
