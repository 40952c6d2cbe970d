// Ablation — double-spending parameters (Sect. 4.3): the paper fixes four
// confirmations and R_DS = 10 block rewards "to facilitate the comparison";
// merchants might wait for more confirmations when forks happen constantly.
// We sweep both knobs for BU (setting 1) and the Bitcoin SM+DS baseline.
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
}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("bench_ablation_ds", "Ablation: double-spend confirmations and reward (Sect. 4.3)");
  bench::add_threads_arg(parser);
  bench::add_obs_args(parser);
  bench::add_sweep_args(parser);
  parser.add({
      {"alpha", util::ArgType::kDouble, "X", "attacker hash-rate share", "0.10"},
  });
  const util::ParsedArgs args = parser.parse(argc, argv);
  bench::ObsSession obs(args);
  bench::SweepSession sweep(args, obs, "bench_ablation_ds");
  const double alpha = args.get_double("alpha", 0.10);
  const mdp::BatchConfig batch = bench::batch_config_from_args(args);

  std::printf(
      "Ablation — double-spend parameters (alpha=%.2f, beta:gamma=1:1)\n\n",
      alpha);

  // ---- Confirmation depth sweep ------------------------------------------
  {
    TextTable table({"confirmations", "BU u2 (setting 1)",
                     "Bitcoin SM+DS (tie-win 100%)"});
    const std::vector<unsigned> confs = {2u, 3u, 4u, 5u, 6u};
    std::vector<bu::AnalysisJob> bu_jobs;
    std::vector<btc::SmJob> sm_jobs;
    for (const unsigned conf : confs) {
      bu::AttackParams params;
      params.alpha = alpha;
      params.beta = params.gamma = (1.0 - alpha) / 2.0;
      params.confirmations = conf;
      bu_jobs.push_back({params, bu::Utility::kAbsoluteReward});

      btc::SmParams sm;
      sm.alpha = alpha;
      sm.gamma_tie = 1.0;
      sm.confirmations = conf;
      sm_jobs.push_back({sm, bu::Utility::kAbsoluteReward, 1e-5});
    }
    const std::vector<bu::AnalysisResult> bu_results = bu::analyze_batch(
        bu_jobs, {}, batch, sweep.journal());
    const std::vector<btc::SmResult> sm_results = btc::analyze_sm_batch(
        sm_jobs, batch, sweep.journal());

    for (std::size_t i = 0; i < confs.size(); ++i) {
      const unsigned conf = confs[i];
      bench::require_solved(bu_results[i],
                            "BU u2 conf=" + std::to_string(conf),
                            /*fatal=*/false);
      const double bu_value = bu_results[i].utility_value;
      bench::require_solved(sm_results[i],
                            "btc sm+ds conf=" + std::to_string(conf),
                            /*fatal=*/false);
      const double btc_value = sm_results[i].utility_value;

      table.add_row({std::to_string(conf), format_fixed(bu_value, 4),
                     format_fixed(btc_value, 4)});
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf("\nR_DS = 10 block rewards\n%s\n", table.to_string().c_str());
  }

  // ---- Double-spend value sweep ------------------------------------------
  {
    TextTable table({"R_DS (block rewards)", "BU u2 (setting 1)",
                     "Bitcoin SM+DS (tie-win 100%)"});
    const std::vector<double> rds_values = {0.0,  1.0,  5.0,  10.0,
                                            25.0, 50.0, 100.0};
    std::vector<bu::AnalysisJob> bu_jobs;
    std::vector<btc::SmJob> sm_jobs;
    for (const double rds : rds_values) {
      bu::AttackParams params;
      params.alpha = alpha;
      params.beta = params.gamma = (1.0 - alpha) / 2.0;
      params.rds = rds;
      bu_jobs.push_back({params, bu::Utility::kAbsoluteReward});

      btc::SmParams sm;
      sm.alpha = alpha;
      sm.gamma_tie = 1.0;
      sm.rds = rds;
      sm_jobs.push_back({sm, bu::Utility::kAbsoluteReward, 1e-5});
    }
    const std::vector<bu::AnalysisResult> bu_results = bu::analyze_batch(
        bu_jobs, {}, batch, sweep.journal());
    const std::vector<btc::SmResult> sm_results = btc::analyze_sm_batch(
        sm_jobs, batch, sweep.journal());

    for (std::size_t i = 0; i < rds_values.size(); ++i) {
      const double rds = rds_values[i];
      bench::require_solved(bu_results[i],
                            "BU u2 rds=" + format_fixed(rds, 0),
                            /*fatal=*/false);
      const double bu_value = bu_results[i].utility_value;
      bench::require_solved(sm_results[i],
                            "btc sm+ds rds=" + format_fixed(rds, 0),
                            /*fatal=*/false);
      const double btc_value = sm_results[i].utility_value;

      table.add_row({format_fixed(rds, 0), format_fixed(bu_value, 4),
                     format_fixed(btc_value, 4)});
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf("\n4 confirmations\n%s\n", table.to_string().c_str());
  }

  std::printf(
      "Reading: BU's advantage over Bitcoin persists across confirmation\n"
      "depths and double-spend values — with higher confirmation\n"
      "requirements Bitcoin attacks collapse to honest mining (u2 = alpha)\n"
      "while BU forks still pay; raising R_DS scales BU's attacker revenue\n"
      "roughly linearly once forks are deep enough to settle merchants.\n");
  return 0;
}
