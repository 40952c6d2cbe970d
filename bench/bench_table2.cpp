// Regenerates Table 2: Alice's expected relative revenue for a compliant
// and profit-driven strategic miner (utility u1, Eq. 1), under setting 1
// (sticky gate removed) and setting 2 (sticky gate enabled), AD = 6.
//
// The paper reports only the cells where the value departs from alpha (all
// others satisfy max u1 = alpha); we regenerate the full grid and print the
// paper's reference value next to ours.
//
// Flags: --quick (skip setting 2), --threads N (batch-solve workers;
// 0 = all hardware threads), plus the crash-safe sweep flags
// (--checkpoint/--resume, see sweep_session.hpp). --alphas
// 0.1,0.25 style overrides are intentionally not provided — the grid is
// the paper's.
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bu/attack_analysis.hpp"
#include "sweep_session.hpp"
#include "util/table.hpp"

namespace {

using namespace bvc;

struct Ratio {
  int b;
  int g;
  [[nodiscard]] std::string label() const {
    return std::to_string(b) + ":" + std::to_string(g);
  }
};

// Paper Table 2 reference values (relative revenue), keyed by
// (beta:gamma label, alpha, setting). Cells the paper leaves implicit equal
// alpha.
std::optional<double> paper_value(const std::string& ratio, double alpha,
                                  bu::Setting setting) {
  using Key = std::pair<std::string, int>;
  static const std::map<Key, double> kSetting1 = {
      {{"1:1", 25}, 0.2624},  {{"2:3", 15}, 0.1505}, {{"2:3", 20}, 0.2115},
      {{"2:3", 25}, 0.2739},  {{"1:2", 15}, 0.1562}, {{"1:2", 20}, 0.2156},
      {{"1:2", 25}, 0.2756},  {{"1:3", 10}, 0.1026}, {{"1:3", 15}, 0.1587},
      {{"1:3", 20}, 0.2158},  {{"1:4", 10}, 0.1034}, {{"1:4", 15}, 0.1584},
  };
  static const std::map<Key, double> kSetting2 = {
      {{"3:2", 25}, 0.2529},
      {{"1:1", 25}, 0.2624},
      {{"2:3", 25}, 0.2529},
      {{"1:2", 25}, 0.2500},
  };
  const Key key{ratio, static_cast<int>(alpha * 100.0 + 0.5)};
  const auto& table =
      setting == bu::Setting::kNoStickyGate ? kSetting1 : kSetting2;
  const auto it = table.find(key);
  if (it != table.end()) {
    return it->second;
  }
  // The paper states every unlisted cell equals alpha.
  return alpha;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bench_table2", "Reproduce Table 2: relative revenue u1, settings 1+2");
  bench::add_threads_arg(parser);
  bench::add_obs_args(parser);
  bench::add_csv_args(parser);
  bench::add_sweep_args(parser);
  parser.add({
      {"quick", util::ArgType::kFlag, "", "solve setting 1 only", ""},
      {"ad", util::ArgType::kLong, "N", "attack duration (excessive-block depth)", "6"},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);
  bench::ObsSession obs(args);
  bench::SweepSession sweep(args, obs, "bench_table2");
  const bool quick = args.get_bool("quick", false);
  const unsigned ad = static_cast<unsigned>(args.get_long("ad", 6));
  const mdp::BatchConfig batch = bench::batch_config_from_args(args);
  bench::CsvSink csv = bench::open_csv(
      args, {"setting", "beta", "gamma", "alpha", "u1", "paper"});

  const std::vector<double> alphas = {0.10, 0.15, 0.20, 0.25};
  const std::vector<Ratio> ratios = {{3, 2}, {1, 1}, {2, 3},
                                     {1, 2}, {1, 3}, {1, 4}};

  std::printf(
      "Table 2 — Alice's expected relative revenue "
      "(compliant & profit-driven, u1), AD=%u\n"
      "paper values in parentheses; unlisted paper cells equal alpha\n\n",
      ad);

  for (const bu::Setting setting :
       {bu::Setting::kNoStickyGate, bu::Setting::kStickyGate}) {
    if (quick && setting == bu::Setting::kStickyGate) {
      std::printf("(setting 2 skipped: --quick)\n");
      break;
    }
    std::printf("Setting %d (%s)\n",
                setting == bu::Setting::kNoStickyGate ? 1 : 2,
                setting == bu::Setting::kNoStickyGate
                    ? "sticky gate removed; phase 1 only"
                    : "sticky gate enabled; phases 1+2");

    TextTable table([&] {
      std::vector<std::string> header = {"beta:gamma"};
      for (const double alpha : alphas) {
        header.push_back("a=" + format_percent(alpha, 0));
      }
      return header;
    }());

    // Pass 1: enumerate the grid cells inside the paper's alpha <=
    // min(beta, gamma) region; pass 2 fans them across the batch engine;
    // pass 3 prints in grid order (batch results are input-ordered).
    struct Cell {
      std::size_t ratio_index;
      double alpha;
      double beta;
      double gamma;
    };
    std::vector<bu::AnalysisJob> jobs;
    std::vector<Cell> cells;
    for (std::size_t r = 0; r < ratios.size(); ++r) {
      const Ratio& ratio = ratios[r];
      for (const double alpha : alphas) {
        bu::AttackParams params = bu::grid_cell(alpha, ratio.b, ratio.g);
        if (!bu::in_paper_region(params)) {
          continue;
        }
        params.setting = setting;
        params.ad = ad;
        jobs.push_back({params, bu::Utility::kRelativeRevenue});
        cells.push_back({r, alpha, params.beta, params.gamma});
      }
    }
    const std::vector<bu::AnalysisResult> results =
        bu::analyze_batch(jobs, {}, batch, sweep.journal());

    std::size_t next_cell = 0;
    for (std::size_t r = 0; r < ratios.size(); ++r) {
      const Ratio& ratio = ratios[r];
      std::vector<std::string> row = {ratio.label()};
      for (const double alpha : alphas) {
        if (next_cell >= cells.size() || cells[next_cell].ratio_index != r ||
            cells[next_cell].alpha != alpha) {
          row.push_back("-");  // outside the paper's alpha <= min(beta,gamma)
          continue;
        }
        const Cell& cell_info = cells[next_cell];
        const bu::AnalysisResult& analysis = results[next_cell];
        ++next_cell;
        bench::require_solved(
            analysis,
            "u1 setting " +
                std::string(setting == bu::Setting::kNoStickyGate ? "1"
                                                                  : "2") +
                " " +
                bench::describe_cell({{"alpha", cell_info.alpha},
                                      {"beta", cell_info.beta},
                                      {"gamma", cell_info.gamma},
                                      {"AD", static_cast<double>(ad)}}));
        const double value = analysis.utility_value;
        const auto paper = paper_value(ratio.label(), alpha, setting);
        std::string cell = format_percent(value);
        if (paper) {
          cell += " (" + format_percent(*paper) + ")";
        }
        row.push_back(std::move(cell));
        csv.row({setting == bu::Setting::kNoStickyGate ? "1" : "2",
                 format_fixed(cell_info.beta, 4),
                 format_fixed(cell_info.gamma, 4),
                 format_fixed(alpha, 4), format_fixed(value, 6),
                 paper ? format_fixed(*paper, 4) : ""});
      }
      table.add_row(std::move(row));
      std::printf(".");  // progress
      std::fflush(stdout);
    }
    std::printf("\n%s\n", table.to_string().c_str());
  }

  std::printf(
      "Reading: Alice gains unfair relative revenue exactly when\n"
      "alpha + gamma > beta (Analytical Result 1); Bitcoin always gives\n"
      "max u1 = alpha under compliance.\n");
  bench::print_cache_stats("bench_table2");
  return 0;
}
