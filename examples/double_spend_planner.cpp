// Example: a "double-spend planner" for a non-compliant attacker — the
// workload the paper's Sect. 4.3 motivates. Given the attacker's power, the
// EB split of the network, and the value at risk per settled transaction,
// it reports expected revenue in BU (both settings) and on Bitcoin, and how
// many merchant confirmations would be needed to suppress the attack.
//
//   $ ./double_spend_planner --alpha 0.05 --split 1:1 --rds 10
#include <cstdio>
#include <string>

#include "btc/honest.hpp"
#include "btc/selfish_mining.hpp"
#include "bu/attack_analysis.hpp"
#include "util/arg_spec.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace {

using namespace bvc;

/// Parses "2:3" into the beta share of the non-attacker power.
double parse_split(const std::string& text) {
  const auto colon = text.find(':');
  BVC_REQUIRE(colon != std::string::npos, "--split must look like 2:3");
  const double b = std::stod(text.substr(0, colon));
  const double g = std::stod(text.substr(colon + 1));
  BVC_REQUIRE(b > 0 && g > 0, "split parts must be positive");
  return b / (b + g);
}

/// Warns on stderr when a solve did not converge; the planner still prints
/// the best-effort value (it is a lower bound on the attacker's revenue).
double checked(double value, robust::RunStatus status, const char* what) {
  if (!robust::is_success(status)) {
    std::fprintf(stderr, "WARNING: %s solve did not converge (status: %s)\n",
                 what, std::string(robust::to_string(status)).c_str());
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser(
      "double_spend_planner",
      "double-spend revenue in BU and on Bitcoin, and the confirmations "
      "that suppress it");
  parser.add({
      {"alpha", util::ArgType::kDouble, "X", "attacker mining power", "0.05"},
      {"split", util::ArgType::kString, "B:G",
       "Bob:Carol split of the compliant power", "1:1"},
      {"rds", util::ArgType::kDouble, "X",
       "double-spend value in block rewards", "10"},
      {"show-policy", util::ArgType::kFlag, "",
       "also print the Bitcoin attacker's optimal action grids", ""},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);
  const double alpha = args.get_double("alpha", 0.05);
  const double beta_share = parse_split(args.get_string("split", "1:1"));
  const double rds = args.get_double("rds", 10.0);

  bu::AttackParams params;
  params.alpha = alpha;
  params.beta = (1.0 - alpha) * beta_share;
  params.gamma = (1.0 - alpha) - params.beta;
  params.rds = rds;

  std::printf(
      "Double-spend planner — attacker %s, EB split %s/%s, R_DS = %.0f "
      "block rewards,\n4 merchant confirmations\n\n",
      format_percent(alpha, 1).c_str(),
      format_percent(params.beta, 1).c_str(),
      format_percent(params.gamma, 1).c_str(), rds);

  TextTable table({"protocol", "expected revenue per network block",
                   "vs honest mining"});
  const auto add = [&](const char* name, double value) {
    table.add_row({name, format_fixed(value, 4),
                   value > alpha + 1e-4
                       ? std::string("+") +
                             format_percent((value - alpha) / alpha, 0)
                       : "no gain"});
  };

  params.setting = bu::Setting::kNoStickyGate;
  {
    const bu::AnalysisResult r =
        bu::analyze(params, bu::Utility::kAbsoluteReward);
    add("BU, sticky gate removed (setting 1)",
        checked(r.utility_value, r.status, "BU setting 1"));
  }
  params.setting = bu::Setting::kStickyGate;
  {
    const bu::AnalysisResult r =
        bu::analyze(params, bu::Utility::kAbsoluteReward);
    add("BU, sticky gate enabled (setting 2)",
        checked(r.utility_value, r.status, "BU setting 2"));
  }

  btc::SmParams sm;
  sm.alpha = alpha;
  sm.rds = rds;
  sm.gamma_tie = 0.5;
  {
    const btc::SmResult r = btc::analyze_sm(sm, bu::Utility::kAbsoluteReward);
    add("Bitcoin, SM+DS, tie-win 50%",
        checked(r.utility_value, r.status, "Bitcoin tie-win 50%"));
  }
  sm.gamma_tie = 1.0;
  {
    const btc::SmResult r = btc::analyze_sm(sm, bu::Utility::kAbsoluteReward);
    add("Bitcoin, SM+DS, tie-win 100%",
        checked(r.utility_value, r.status, "Bitcoin tie-win 100%"));
  }
  add("honest mining (either protocol)", btc::honest_absolute_reward(alpha));

  std::printf("%s\n", table.to_string().c_str());

  // How many confirmations would a merchant need before BU's edge vanishes?
  std::printf("merchant guidance — confirmations needed to suppress the BU "
              "attack:\n");
  params.setting = bu::Setting::kNoStickyGate;
  unsigned conf = 4;
  for (; conf <= params.ad + 1; ++conf) {
    params.confirmations = conf;
    const bu::AnalysisResult r =
        bu::analyze(params, bu::Utility::kAbsoluteReward);
    const double value = checked(
        r.utility_value, r.status,
        ("confirmation sweep conf=" + std::to_string(conf)).c_str());
    std::printf("  %u confirmations: u2 = %.4f%s\n", conf, value,
                value <= alpha + 1e-4 ? "  <- attack no longer pays" : "");
    if (value <= alpha + 1e-4) {
      break;
    }
  }
  std::printf(
      "\nNote: deeper confirmations only help until AD-length forks can\n"
      "settle them; raising AD re-enables the attack (Sect. 6.2).\n");

  if (args.get_bool("show-policy", false)) {
    // The Bitcoin attacker's optimal strategy, Sapirshtein-style: one
    // action grid per fork label (a = adopt, o = override, m = match,
    // w = wait).
    btc::SmParams grid = sm;
    grid.gamma_tie = 0.5;
    const btc::SmModel model =
        btc::build_sm_model(grid, bu::Utility::kAbsoluteReward);
    const btc::SmResult solved =
        btc::analyze_sm(grid, bu::Utility::kAbsoluteReward);
    std::printf(
        "\nOptimal Bitcoin SM+DS policy (alpha=%s, tie-win 50%%):\n%s",
        format_percent(alpha, 1).c_str(),
        btc::describe_sm_policy(model, solved.policy, 7).c_str());
  }
  return 0;
}
