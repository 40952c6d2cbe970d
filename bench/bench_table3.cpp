// Regenerates Table 3: Alice's expected absolute revenue for a
// non-compliant and profit-driven attacker combining chain-splitting with
// double-spending (utility u2, Eq. 2; R_DS = 10 block rewards, four
// confirmations), plus the paper's Bitcoin comparison block: optimal
// selfish mining + double-spending (Sompolinsky-Zohar setting, solved with
// a Sapirshtein-style MDP).
//
// Reproduction status (see EXPERIMENTS.md): the Bitcoin block and the BU
// setting-2 grid match the paper to ~0.01; our BU setting-1 values are
// 20-30% below the paper's. The paper's text does not pin down the
// double-spend accounting of its setting-1 run precisely enough to close
// that gap (we tested five reward conventions and two race-depth variants,
// which bracket the published numbers). All qualitative claims —
// profitability for a 1% miner, the beta-heavy asymmetry, BU >> Bitcoin —
// reproduce under every convention.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "btc/selfish_mining.hpp"
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

// Paper Table 3 values, [setting][ratio][alpha index].
constexpr double kNoValue = -1.0;
const std::vector<double> kAlphas = {0.01, 0.025, 0.05, 0.10,
                                     0.15, 0.20,  0.25};
const std::vector<Ratio> kRatios = {{4, 1}, {2, 1}, {1, 1}, {1, 2}, {1, 4}};
const double kPaperSetting1[5][7] = {
    {0.013, 0.038, 0.090, 0.24, 0.44, kNoValue, kNoValue},
    {0.035, 0.089, 0.18, 0.39, 0.61, 0.83, 1.1},
    {0.042, 0.10, 0.20, 0.40, 0.59, 0.78, 0.97},
    {0.025, 0.063, 0.13, 0.26, 0.40, 0.55, 0.71},
    {0.013, 0.033, 0.067, 0.14, 0.23, kNoValue, kNoValue},
};
const double kPaperSetting2[5][7] = {
    {0.01, 0.027, 0.063, 0.16, 0.28, kNoValue, kNoValue},
    {0.025, 0.064, 0.13, 0.27, 0.41, 0.55, 0.69},
    {0.034, 0.084, 0.16, 0.31, 0.46, 0.59, 0.73},
    {0.024, 0.063, 0.13, 0.27, 0.41, 0.55, 0.69},
    {0.011, 0.028, 0.064, 0.16, 0.29, kNoValue, kNoValue},
};

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bench_table3", "Reproduce Table 3: absolute revenue u2 with double-spending");
  bench::add_standard_bench_args(parser);
  bench::add_csv_args(parser);
  bench::add_sweep_args(parser);
  parser.add({
      {"quick", util::ArgType::kFlag, "", "solve the reduced grid only", ""},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);
  bench::ObsSession obs(args);
  bench::SweepSession sweep(args, obs, "bench_table3");
  const bool quick = args.get_bool("quick", false);
  const mdp::BatchConfig batch = bench::batch_config_from_args(args);
  bench::CsvSink csv = bench::open_csv(
      args,
      {"protocol", "setting_or_tiewin", "beta", "gamma", "alpha", "u2",
       "paper"});

  std::printf(
      "Table 3 — Alice's expected absolute revenue per network block\n"
      "(non-compliant & profit-driven, u2; R_DS = 10, 4 confirmations)\n"
      "paper values in parentheses; '-' = outside alpha <= min(beta,gamma)\n\n");

  for (const bu::Setting setting :
       {bu::Setting::kNoStickyGate, bu::Setting::kStickyGate}) {
    if (quick && setting == bu::Setting::kStickyGate) {
      std::printf("(setting 2 skipped: --quick)\n");
      break;
    }
    const bool s1 = setting == bu::Setting::kNoStickyGate;
    std::printf("Setting %d\n", s1 ? 1 : 2);

    TextTable table([&] {
      std::vector<std::string> header = {"alpha \\ beta:gamma"};
      for (const Ratio& ratio : kRatios) {
        header.push_back(ratio.label());
      }
      return header;
    }());

    // Enumerate the in-region grid cells, batch-solve them, then print in
    // grid order (batch results are input-ordered).
    struct Cell {
      std::size_t alpha_index;
      std::size_t ratio_index;
      double beta;
      double gamma;
    };
    std::vector<bu::AnalysisJob> jobs;
    std::vector<Cell> cells;
    for (std::size_t ai = 0; ai < kAlphas.size(); ++ai) {
      const double alpha = kAlphas[ai];
      for (std::size_t ri = 0; ri < kRatios.size(); ++ri) {
        const Ratio& ratio = kRatios[ri];
        bu::AttackParams params = bu::grid_cell(alpha, ratio.b, ratio.g);
        if (!bu::in_paper_region(params)) {
          continue;
        }
        params.setting = setting;
        jobs.push_back({params, bu::Utility::kAbsoluteReward});
        cells.push_back({ai, ri, params.beta, params.gamma});
      }
    }
    const std::vector<bu::AnalysisResult> results =
        bu::analyze_batch(jobs, {}, batch, sweep.journal());

    std::size_t next_cell = 0;
    for (std::size_t ai = 0; ai < kAlphas.size(); ++ai) {
      const double alpha = kAlphas[ai];
      std::vector<std::string> row = {format_percent(alpha, 1)};
      for (std::size_t ri = 0; ri < kRatios.size(); ++ri) {
        if (next_cell >= cells.size() ||
            cells[next_cell].alpha_index != ai ||
            cells[next_cell].ratio_index != ri) {
          row.push_back("-");
          continue;
        }
        const Cell& cell_info = cells[next_cell];
        const bu::AnalysisResult& analysis = results[next_cell];
        ++next_cell;
        bench::require_solved(
            analysis,
            "u2 setting " + (s1 ? std::string("1") : std::string("2")) + " " +
                bench::describe_cell({{"alpha", alpha},
                                      {"beta", cell_info.beta},
                                      {"gamma", cell_info.gamma}}));
        const double value = analysis.utility_value;
        const double paper =
            (s1 ? kPaperSetting1 : kPaperSetting2)[ri][ai];
        std::string cell = format_fixed(value, 3);
        if (paper != kNoValue) {
          cell += " (" + format_fixed(paper, 3) + ")";
        }
        row.push_back(std::move(cell));
        csv.row({"bu", s1 ? "1" : "2", format_fixed(cell_info.beta, 4),
                 format_fixed(cell_info.gamma, 4), format_fixed(alpha, 4),
                 format_fixed(value, 6),
                 paper != kNoValue ? format_fixed(paper, 3) : ""});
        std::printf(".");
        std::fflush(stdout);
      }
      table.add_row(std::move(row));
    }
    std::printf("\n%s\n", table.to_string().c_str());
  }

  // --- Bitcoin comparison: optimal selfish mining + double-spending -------
  std::printf(
      "Selfish Mining + Double-Spending on Bitcoin "
      "(optimal, Sapirshtein-style MDP)\n");
  const double kPaperBtc[2][4] = {{0.1, 0.15, 0.2, 0.38},
                                  {0.11, 0.18, 0.30, 0.52}};
  TextTable btc_table({"P(win a tie)", "a=10%", "a=15%", "a=20%", "a=25%"});
  const std::vector<double> btc_alphas = {0.10, 0.15, 0.20, 0.25};
  const std::vector<double> ties = {0.5, 1.0};
  std::vector<btc::SmJob> sm_jobs;
  for (const double tie : ties) {
    for (const double alpha : btc_alphas) {
      btc::SmParams sm_params;
      sm_params.alpha = alpha;
      sm_params.gamma_tie = tie;
      sm_jobs.push_back({sm_params, bu::Utility::kAbsoluteReward, 1e-5});
    }
  }
  const std::vector<btc::SmResult> sm_results =
      btc::analyze_sm_batch(sm_jobs, batch, sweep.journal());

  for (std::size_t ti = 0; ti < ties.size(); ++ti) {
    const double tie = ties[ti];
    std::vector<std::string> row = {format_percent(tie, 0)};
    for (std::size_t i = 0; i < btc_alphas.size(); ++i) {
      const btc::SmResult& sm = sm_results[ti * btc_alphas.size() + i];
      bench::require_solved(
          sm, "btc sm+ds " + bench::describe_cell({{"alpha", btc_alphas[i]},
                                                   {"tie", tie}}));
      const double value = sm.utility_value;
      row.push_back(format_fixed(value, 3) + " (" +
                    format_fixed(kPaperBtc[ti][i], 2) + ")");
      csv.row({"bitcoin-sm-ds", format_fixed(tie, 2), "", "",
               format_fixed(btc_alphas[i], 4), format_fixed(value, 6),
               format_fixed(kPaperBtc[ti][i], 2)});
      std::printf(".");
      std::fflush(stdout);
    }
    btc_table.add_row(std::move(row));
  }
  std::printf("\n%s\n", btc_table.to_string().c_str());

  std::printf(
      "Reading (Analytical Result 2): in BU even a 1%% miner profits from\n"
      "double-spending (u2 > alpha), whereas in Bitcoin double-spending is\n"
      "unprofitable below ~10%% mining power even when winning every tie.\n");
  bench::print_cache_stats("bench_table3");
  return 0;
}
