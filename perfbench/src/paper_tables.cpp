// Workload paper-tables: the full Table 2, 3 and 4 grids exactly as
// bench_table2/3/4 enumerate them (130 bu cells, 8 Bitcoin baseline
// cells), one analyze_batch / analyze_sm_batch call per table block, at 4
// threads, from a cold ModelCache and with no journal. Each cell must
// converge and print the value stored in perfbench/reference/table*.txt,
// the --csv output of bench_table2/3/4.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "btc/selfish_mining.hpp"
#include "bu/attack_analysis.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "mdp/model_cache.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace bvc;

constexpr int kThreads = 4;
/// Wall seconds of one pass on a 4-core x86 host; sizes the run.
constexpr double kPassEstimateSeconds = 40.0;

/// One analyze_batch (or analyze_sm_batch) call of a pass: the cells of one
/// table block and, per cell, the CSV row fields the bench prints before
/// the paper column.
struct Block {
  std::string csv;  ///< reference file, e.g. "table2.txt"
  std::vector<bu::AnalysisJob> bu_jobs;
  std::vector<btc::SmJob> sm_jobs;
  std::vector<std::vector<std::string>> row_prefix;
};

/// Appends the bu cells of one bench block: beta/gamma from a b:g ratio,
/// cells outside alpha <= min(beta, gamma) skipped, as the benches do.
void add_ratio_cell(Block& block, std::vector<std::string> prefix,
                    double alpha, int b, int g, bu::Setting setting,
                    bu::Utility utility) {
  const double rest = 1.0 - alpha;
  const double beta = rest * b / (b + g);
  const double gamma = rest - beta;
  if (alpha > beta || alpha > gamma) {
    return;
  }
  bu::AttackParams params;
  params.alpha = alpha;
  params.beta = beta;
  params.gamma = gamma;
  params.setting = setting;
  block.bu_jobs.push_back({params, utility});
  prefix.push_back(format_fixed(beta, 4));
  prefix.push_back(format_fixed(gamma, 4));
  prefix.push_back(format_fixed(alpha, 4));
  block.row_prefix.push_back(std::move(prefix));
}

std::vector<Block> paper_blocks() {
  std::vector<Block> blocks;
  const std::vector<std::pair<int, int>> t2_ratios = {
      {3, 2}, {1, 1}, {2, 3}, {1, 2}, {1, 3}, {1, 4}};
  const std::vector<double> t2_alphas = {0.10, 0.15, 0.20, 0.25};
  for (const bu::Setting setting :
       {bu::Setting::kNoStickyGate, bu::Setting::kStickyGate}) {
    Block block{"table2.txt", {}, {}, {}};
    const std::string s = setting == bu::Setting::kNoStickyGate ? "1" : "2";
    for (const auto& [b, g] : t2_ratios) {
      for (const double alpha : t2_alphas) {
        add_ratio_cell(block, {s}, alpha, b, g, setting,
                       bu::Utility::kRelativeRevenue);
      }
    }
    blocks.push_back(std::move(block));
  }

  const std::vector<std::pair<int, int>> t3_ratios = {
      {4, 1}, {2, 1}, {1, 1}, {1, 2}, {1, 4}};
  const std::vector<double> t3_alphas = {0.01, 0.025, 0.05, 0.10,
                                         0.15, 0.20,  0.25};
  for (const bu::Setting setting :
       {bu::Setting::kNoStickyGate, bu::Setting::kStickyGate}) {
    Block block{"table3.txt", {}, {}, {}};
    const std::string s = setting == bu::Setting::kNoStickyGate ? "1" : "2";
    for (const double alpha : t3_alphas) {
      for (const auto& [b, g] : t3_ratios) {
        add_ratio_cell(block, {"bu", s}, alpha, b, g, setting,
                       bu::Utility::kAbsoluteReward);
      }
    }
    blocks.push_back(std::move(block));
  }
  Block btc_block{"table3.txt", {}, {}, {}};
  for (const double tie : {0.5, 1.0}) {
    for (const double alpha : {0.10, 0.15, 0.20, 0.25}) {
      btc::SmParams params;
      params.alpha = alpha;
      params.gamma_tie = tie;
      btc_block.sm_jobs.push_back(
          {params, bu::Utility::kAbsoluteReward, 1e-5});
      btc_block.row_prefix.push_back(
          {"bitcoin-sm-ds", format_fixed(tie, 2), "", "",
           format_fixed(alpha, 4)});
    }
  }
  blocks.push_back(std::move(btc_block));

  Block t4{"table4.txt", {}, {}, {}};
  const std::vector<std::pair<int, int>> t4_rows = {
      {4, 1}, {3, 1}, {2, 1}, {3, 2}, {1, 1}, {2, 3}, {1, 2}, {1, 3}, {1, 4}};
  for (const auto& [b, g] : t4_rows) {
    for (const bu::Setting setting :
         {bu::Setting::kNoStickyGate, bu::Setting::kStickyGate}) {
      add_ratio_cell(t4, {setting == bu::Setting::kNoStickyGate ? "1" : "2"},
                     0.01, b, g, setting, bu::Utility::kOrphaning);
    }
  }
  blocks.push_back(std::move(t4));
  return blocks;
}

using Csv = std::vector<std::vector<std::string>>;

/// The reference CSV rows (header dropped), split on commas; a trailing
/// empty field (no paper value) is dropped, which the comparison allows.
Csv read_csv(const std::string& path) {
  Csv rows;
  std::ifstream in(path);
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    std::vector<std::string> fields;
    std::stringstream split(line);
    std::string field;
    while (std::getline(split, field, ',')) {
      fields.push_back(field);
    }
    rows.push_back(std::move(fields));
  }
  return rows;
}

/// What one pass measured.
struct Pass {
  double wall_s = 0.0;
  std::vector<double> block_s;   ///< per analyze_*_batch call
  std::vector<double> record_s;  ///< per cell: its batch's duration
  std::size_t cells = 0;
  double outer_iterations = 0.0;
  double states_built = 0.0;
  double btc_s = 0.0;
};

/// Checks one block's values against its reference rows, from `row` on.
void check_block(const Block& block, const std::vector<double>& values,
                 const std::vector<bool>& converged, const Csv& rows,
                 std::size_t& row, Outcome& outcome) {
  for (std::size_t i = 0; i < values.size(); ++i, ++row) {
    outcome.attempt();
    std::vector<std::string> expected = block.row_prefix[i];
    expected.push_back(format_fixed(values[i], 6));
    const bool matches =
        row < rows.size() && rows[row].size() >= expected.size() &&
        std::equal(expected.begin(), expected.end(), rows[row].begin());
    if (!converged[i] || !matches) {
      outcome.fail(block.csv + " row " + std::to_string(row + 1) + ": got " +
                   expected.back() + (converged[i] ? "" : " (unconverged)"));
    }
  }
}

Pass run_pass(const std::vector<Block>& blocks,
              const std::map<std::string, Csv>& references, Outcome& outcome) {
  mdp::ModelCache::global().clear();  // every pass starts cold
  mdp::BatchConfig batch;
  batch.threads = kThreads;
  Pass pass;
  std::vector<std::vector<double>> block_values;
  std::vector<std::vector<bool>> block_converged;
  const Clock::time_point start = Clock::now();
  for (const Block& block : blocks) {
    std::vector<double>& values = block_values.emplace_back();
    std::vector<bool>& converged = block_converged.emplace_back();
    const Clock::time_point block_start = Clock::now();
    if (!block.bu_jobs.empty()) {
      obs::Span span("bench.bu.analyze_batch", "perfbench");
      for (const bu::AnalysisResult& result :
           bu::analyze_batch(block.bu_jobs, {}, batch)) {
        values.push_back(result.utility_value);
        converged.push_back(result.converged());
        pass.outer_iterations += result.diagnostics.outer_iterations;
      }
    } else {
      obs::Span span("bench.btc.analyze_sm_batch", "perfbench");
      for (const btc::SmResult& result :
           btc::analyze_sm_batch(block.sm_jobs, batch)) {
        values.push_back(result.utility_value);
        converged.push_back(result.converged());
        pass.outer_iterations += result.diagnostics.outer_iterations;
      }
    }
    const double block_s = seconds_since(block_start);
    pass.block_s.push_back(block_s);
    if (block.bu_jobs.empty()) {
      pass.btc_s += block_s;
    }
    pass.record_s.insert(pass.record_s.end(), values.size(), block_s);
    pass.cells += values.size();
  }
  pass.wall_s = seconds_since(start);

  std::map<std::string, std::size_t> next_row;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    check_block(blocks[b], block_values[b], block_converged[b],
                references.at(blocks[b].csv), next_row[blocks[b].csv],
                outcome);
  }
  for (const Block& block : blocks) {
    for (const bu::AnalysisJob& job : block.bu_jobs) {
      if (const auto model = mdp::ModelCache::global().find(
              bu::attack_model_cache_key(job.params, job.utility))) {
        pass.states_built += model->num_states();
      }
    }
  }
  return pass;
}

}  // namespace

double paper_tables_setup(const RunOptions&) {
  // The kernel ISA calibration, then a batch pool start and stop.
  const Clock::time_point start = Clock::now();
  (void)calibrate_kernel();
  { util::ThreadPool pool(kThreads); }
  return seconds_since(start);
}

void run_paper_tables(const RunOptions& options, Outcome& outcome) {
  const std::vector<Block> blocks = paper_blocks();
  std::map<std::string, Csv> references;
  for (const Block& block : blocks) {
    references.try_emplace(block.csv,
                           read_csv(options.reference_dir + "/" + block.csv));
  }

  if (!options.trace) {
    SetupSampler setup(options, outcome);

    const int passes =
        std::max(1, static_cast<int>(options.seconds / kPassEstimateSeconds));
    std::vector<double> walls;
    std::vector<double> block_s;
    std::vector<double> record_s;
    double wall_total = 0.0;
    std::size_t cells = 0;
    for (int p = 0; p < passes; ++p) {
      setup.before_unit(p, passes);
      const Pass pass = run_pass(blocks, references, outcome);
      walls.push_back(pass.wall_s);
      wall_total += pass.wall_s;
      cells += pass.cells;
      block_s.insert(block_s.end(), pass.block_s.begin(), pass.block_s.end());
      record_s.insert(record_s.end(), pass.record_s.begin(),
                      pass.record_s.end());
    }
    setup.before_unit(passes, passes);
    outcome.set("setup_s", setup.median_s());
    outcome.set("wall_s", median(walls));
    outcome.set("cells_per_s", static_cast<double>(cells) / wall_total);
    outcome.set("job_latency_p50_s", median(block_s));
    outcome.set("record_latency_p50_s", percentile(record_s, 0.50));
    outcome.set("record_latency_p99_s", percentile(record_s, 0.99));
    outcome.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced run: an untraced pass as the overhead baseline, then a traced
  // pass (each cold).
  const Pass plain = run_pass(blocks, references, outcome);
  TracedWindow window(1 << 14);
  const Pass traced = run_pass(blocks, references, outcome);
  window.stop();

  // bu model construction: batch.item self time (item minus cache.compile
  // and ratio.solve, and minus the bookkeeping after the solve) of the items
  // inside the bu analyze_batch calls.
  std::vector<std::pair<std::int64_t, std::int64_t>> bu_windows;
  for (const SpanEvent& span : window.spans()) {
    if (span.name == "bench.bu.analyze_batch") {
      bu_windows.emplace_back(span.start_ns, span.end_ns);
    }
  }
  double build_s = 0.0;
  for (const SpanEvent& span : window.spans()) {
    if (span.name != "batch.item") {
      continue;
    }
    for (const auto& [begin, end] : bu_windows) {
      if (span.start_ns >= begin && span.start_ns <= end) {
        build_s += span.self_s - span.tail_s;
        break;
      }
    }
  }
  const mdp::ModelCache::Stats cache = mdp::ModelCache::global().stats();
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  outcome.set("bu.build_s", build_s);
  outcome.set("bu.states_built", traced.states_built);
  outcome.set("btc.solve_s", traced.btc_s);
  outcome.set("mdp.cache.misses", static_cast<double>(cache.misses));
  outcome.set("mdp.cache.hit_ratio",
              lookups > 0.0 ? static_cast<double>(cache.hits) / lookups : 0.0);
  outcome.set("mdp.cache.resident_mb",
              static_cast<double>(cache.bytes_resident) / (1024.0 * 1024.0));
  set_solver_metrics(outcome, window);
  outcome.set("mdp.ratio.outer_iterations", traced.outer_iterations);
  set_pool_metrics(outcome, window.metrics(), traced.wall_s, kThreads);
  outcome.set("obs.trace_overhead_share", traced.wall_s / plain.wall_s - 1.0);
  outcome.set("obs.trace.dropped_spans", window.dropped());
}

}  // namespace perfbench
