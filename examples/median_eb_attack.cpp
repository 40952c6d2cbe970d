// Example: the "median EB attack", generalized (Sect. 4.1.1 / reference
// [13]). Give the tool the EB distribution the network signals and an
// attacker size; it evaluates every split point Alice could choose and
// reports the most damaging one for each incentive model.
//
//   $ ./median_eb_attack --alpha 0.1 --signals 35:1,25:2,20:8,20:16
//
// where each `power:eb_mb` pair is a compliant cohort (power in % of the
// non-attacker power... of the whole network excluding Alice).
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bu/multi_eb.hpp"
#include "util/arg_spec.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace {

using namespace bvc;

std::vector<bu::EbGroup> parse_signals(const std::string& text,
                                       double alpha) {
  std::vector<bu::EbGroup> groups;
  std::istringstream in(text);
  std::string token;
  double total = 0.0;
  while (std::getline(in, token, ',')) {
    const auto colon = token.find(':');
    BVC_REQUIRE(colon != std::string::npos,
                "--signals must look like 35:1,25:2,...");
    bu::EbGroup group;
    group.power = std::stod(token.substr(0, colon)) / 100.0;
    group.eb = static_cast<chain::ByteSize>(
        std::stod(token.substr(colon + 1)) * chain::kMegabyte);
    total += group.power;
    groups.push_back(group);
  }
  // The percentages describe the compliant cohort; scale to 1 - alpha.
  for (auto& group : groups) {
    group.power *= (1.0 - alpha) / total;
  }
  return groups;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser(
      "median_eb_attack",
      "find Alice's most damaging split point against a signaled EB "
      "distribution");
  parser.add({
      {"alpha", util::ArgType::kDouble, "X", "attacker mining power", "0.10"},
      {"signals", util::ArgType::kString, "P:MB,...",
       "compliant cohorts as power%:eb_mb pairs", "35:1,25:2,20:8,20:16"},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);
  const double alpha = args.get_double("alpha", 0.10);
  const std::vector<bu::EbGroup> groups =
      parse_signals(args.get_string("signals", "35:1,25:2,20:8,20:16"),
                    alpha);

  std::printf(
      "Median-EB attack planner — attacker %s, %zu signaled EB cohorts\n\n",
      format_percent(alpha, 1).c_str(), groups.size());

  for (const bu::Utility utility :
       {bu::Utility::kRelativeRevenue, bu::Utility::kAbsoluteReward,
        bu::Utility::kOrphaning}) {
    std::printf("%s\n", std::string(bu::to_string(utility)).c_str());
    TextTable table({"split d", "trigger size", "Bob side (rejects)",
                     "Carol side (accepts)", "optimal utility"});
    const auto splits =
        bu::evaluate_splits(alpha, groups, utility);
    double best = -1.0;
    std::size_t best_d = 0;
    for (const auto& split : splits) {
      if (split.analysis.utility_value > best) {
        best = split.analysis.utility_value;
        best_d = split.d;
      }
      table.add_row(
          {std::to_string(split.d),
           format_fixed(static_cast<double>(split.trigger) /
                            static_cast<double>(chain::kMegabyte),
                        0) +
               " MB",
           format_percent(split.params.beta, 1),
           format_percent(split.params.gamma, 1),
           format_fixed(split.analysis.utility_value, 4)});
    }
    std::printf("%s", table.to_string().c_str());
    const double baseline =
        utility == bu::Utility::kOrphaning ? 0.0 : alpha;
    std::printf("  -> best split: d = %zu (baseline %s %.4f)\n\n", best_d,
                utility == bu::Utility::kOrphaning ? "Bitcoin bound 1.0,"
                                                   : "honest",
                utility == bu::Utility::kOrphaning ? 1.0 : baseline);
  }

  std::printf(
      "Every signaled EB boundary is a knife Alice can cut the network\n"
      "with; more diversity in signals only adds options (Sect. 4.1.1).\n");
  return 0;
}
