// google-benchmark microbenchmarks of the numerical core: model builds,
// warm-cache cell solves, relative value iteration, ratio (Dinkelbach)
// solves, and simulator throughput. These guard the performance
// assumptions behind the table benches (a setting-2 Dinkelbach solve must
// stay ~1 s or the full grids become impractical).
//
// `--mode=kernel` bypasses google-benchmark and runs the AoS-vs-SoA sweep
// kernel comparison instead, writing BENCH_kernel.json (see run_kernel_mode
// below).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "bu/attack_analysis.hpp"
#include "btc/selfish_mining.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/batch.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/kernel.hpp"
#include "sim/attack_scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;

bu::AttackParams grid_params(bu::Setting setting) {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.setting = setting;
  return params;
}

/// State-space enumeration + Model build for one cell (Arg: the setting,
/// 1 or 2). The ModelCache holds the rule set's template after the first
/// iteration, so this is the enumeration a warm analyze() skips (it pays
/// only the template's per-cell instantiation).
void BM_BuildAttackModel(benchmark::State& state) {
  const bu::AttackParams params = grid_params(
      state.range(0) == 2 ? bu::Setting::kStickyGate
                          : bu::Setting::kNoStickyGate);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bu::build_attack_model(params, bu::Utility::kRelativeRevenue));
  }
}
BENCHMARK(BM_BuildAttackModel)->Arg(1)->Arg(2);

/// The per-cell cost of a bvcd grid job on a warm cache, without the
/// daemon: analyze() over 20 setting-1 u1 cells (alpha x Bob/Carol split)
/// whose compiled models the cache already holds — key format, lookup and
/// the ratio solve. Reports per-cell time via items_per_second.
void BM_WarmCellAnalyze(benchmark::State& state) {
  std::vector<bu::AttackParams> cells;
  for (const double alpha : {0.10, 0.15, 0.20, 0.25}) {
    for (const double bob_share : {0.2, 0.4, 0.5, 0.6, 0.8}) {
      bu::AttackParams params;
      params.alpha = alpha;
      params.beta = (1.0 - alpha) * bob_share;
      params.gamma = 1.0 - alpha - params.beta;
      cells.push_back(params);
    }
  }
  for (const bu::AttackParams& params : cells) {
    (void)bu::analyze(params, bu::Utility::kRelativeRevenue);  // warm up
  }
  for (auto _ : state) {
    for (const bu::AttackParams& params : cells) {
      benchmark::DoNotOptimize(
          bu::analyze(params, bu::Utility::kRelativeRevenue));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_WarmCellAnalyze)->Unit(benchmark::kMicrosecond);

void BM_RviSweepSetting2(benchmark::State& state) {
  const bu::AttackModel model = bu::build_attack_model(
      grid_params(bu::Setting::kStickyGate), bu::Utility::kRelativeRevenue);
  mdp::AverageRewardKnobs knobs;
  knobs.max_sweeps = static_cast<int>(state.range(0));
  knobs.tolerance = 1e-30;  // force exactly max_sweeps sweeps
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mdp::maximize_average_reward(*model.compiled, knobs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          model.model.num_states());
}
BENCHMARK(BM_RviSweepSetting2)->Arg(10);

// Batch of eight Table-3-style setting-1 cells through bu::analyze_batch;
// Arg is BatchConfig::threads (1 = serial baseline for the speedup ratio).
// The models are compiled into the cache up front, so every Arg times the
// solves alone. UseRealTime because the work happens on pool threads.
void BM_BatchSolveTable3(benchmark::State& state) {
  struct Grid {
    int b;
    int g;
  };
  const std::vector<Grid> grids = {{2, 1}, {1, 1}};
  const std::vector<double> alphas = {0.05, 0.10, 0.15, 0.20};
  std::vector<bu::AnalysisJob> jobs;
  for (const Grid& grid : grids) {
    for (const double alpha : alphas) {
      const bu::AttackParams params = bu::grid_cell(alpha, grid.b, grid.g);
      jobs.push_back({params, bu::Utility::kAbsoluteReward});
      (void)bu::attack_model_compiled(params, bu::Utility::kAbsoluteReward);
    }
  }
  mdp::BatchConfig config;
  config.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mdp::BatchReport report;
    (void)bu::analyze_batch(jobs, {}, config, {}, &report);
    benchmark::DoNotOptimize(report.items_converged);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_BatchSolveTable3)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

void BM_SolveRelativeRevenueSetting1(benchmark::State& state) {
  const bu::AttackParams params = grid_params(bu::Setting::kNoStickyGate);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bu::analyze(params, bu::Utility::kRelativeRevenue));
  }
}
BENCHMARK(BM_SolveRelativeRevenueSetting1);

void BM_SolveRelativeRevenueSetting2(benchmark::State& state) {
  const bu::AttackParams params = grid_params(bu::Setting::kStickyGate);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bu::analyze(params, bu::Utility::kRelativeRevenue));
  }
}
BENCHMARK(BM_SolveRelativeRevenueSetting2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_SolveSelfishMining(benchmark::State& state) {
  btc::SmParams params;
  params.alpha = 0.35;
  params.gamma_tie = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        btc::analyze_sm(params, bu::Utility::kRelativeRevenue));
  }
}
BENCHMARK(BM_SolveSelfishMining);

void BM_ScenarioSimThroughput(benchmark::State& state) {
  const bu::AttackModel model = bu::build_attack_model(
      grid_params(bu::Setting::kNoStickyGate), bu::Utility::kRelativeRevenue);
  const bu::AnalysisResult analysis = bu::analyze(model);
  bench::require_solved(analysis.status, "scenario-sim setup solve",
                        /*fatal=*/false);
  sim::AttackScenarioSim simulator(model, sim::ScenarioOptions{});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulator.run(analysis.policy, 100'000, rng));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_ScenarioSimThroughput)->Unit(benchmark::kMillisecond);

void BM_PolicyRollout(benchmark::State& state) {
  const bu::AttackModel model = bu::build_attack_model(
      grid_params(bu::Setting::kNoStickyGate), bu::Utility::kRelativeRevenue);
  const bu::AnalysisResult analysis = bu::analyze(model);
  bench::require_solved(analysis.status, "rollout setup solve",
                        /*fatal=*/false);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bu::rollout_policy(model, analysis.policy, 100'000, rng));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_PolicyRollout)->Unit(benchmark::kMillisecond);

}  // namespace

// ---- --mode=kernel: AoS vs SoA sweep throughput --------------------------
//
// Measures the raw Bellman-backup sweep — the inner loop every solver and
// every table cell spends its time in — over the two model layouts:
//
//   AoS — the seed data path: bounds-checked std::span lookups over the
//         Model's 32-byte Outcome structs (half of every cache line loaded
//         into the sweep is reward/weight data the backup never touches);
//   SoA — the CompiledModel kernel layout: raw contiguous next/prob columns.
//
// Both variants run the identical serial Gauss-Seidel greedy sweep with the
// identical expression order, so their bias vectors stay bitwise equal —
// which the run asserts, making this a throughput measurement of the same
// computation, not of two different algorithms.
//
// Policy evaluation gets its own rows: a fixed-policy Jacobi sweep over the
// model's CSR columns (restricted to the policy's action per state) against
// kernel::rvi_eval_sweep over the policy's compacted chain, once per ISA.
// All of them must agree bit-for-bit.
//
// Three-action rows time the same dispatched greedy sweep on a Table 4
// setting-2 model (u3, whose menu adds Wait), once per ISA, among
// themselves; they too must agree bit-for-bit, and the dispatched vector
// sweep must run at least 2x the scalar one.

namespace {

constexpr double kKernelTau = 0.999;

/// One in-place Gauss-Seidel greedy sweep over the AoS Model layout, the
/// seed solver's serial discipline (state-0 residual subtracted in-sweep).
void aos_sweep(const mdp::Model& model, std::span<const double> rewards,
               std::vector<double>& bias) {
  const mdp::StateId n = model.num_states();
  double ref = 0.0;
  for (mdp::StateId s = 0; s < n; ++s) {
    const std::size_t actions = model.num_actions(s);
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < actions; ++a) {
      const mdp::SaIndex sa = model.sa_index(s, a);
      double q = rewards[sa];
      double expected_next = 0.0;
      for (const mdp::Outcome& outcome : model.outcomes(sa)) {
        expected_next += outcome.probability * bias[outcome.next];
      }
      q = kKernelTau * (q + expected_next) + (1.0 - kKernelTau) * bias[s];
      if (q > best) {
        best = q;
      }
    }
    if (s == 0) {
      ref = best - bias[0];
    }
    bias[s] = best - ref;
  }
}

/// The same sweep over the CompiledModel SoA columns.
void soa_sweep(const mdp::CompiledModel& model,
               std::span<const double> rewards, std::vector<double>& bias) {
  const mdp::StateId n = model.num_states();
  const mdp::StateId* next_col = model.next();
  const double* prob_col = model.prob();
  const double* rewards_data = rewards.data();
  double ref = 0.0;
  for (mdp::StateId s = 0; s < n; ++s) {
    const std::size_t actions = model.num_actions(s);
    const mdp::SaIndex sa_base = model.state_begin(s);
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < actions; ++a) {
      const mdp::SaIndex sa = sa_base + a;
      double q = rewards_data[sa];
      double expected_next = 0.0;
      const std::size_t end = model.outcome_end(sa);
      for (std::size_t k = model.outcome_begin(sa); k < end; ++k) {
        expected_next += prob_col[k] * bias[next_col[k]];
      }
      q = kKernelTau * (q + expected_next) + (1.0 - kKernelTau) * bias[s];
      if (q > best) {
        best = q;
      }
    }
    if (s == 0) {
      ref = best - bias[0];
    }
    bias[s] = best - ref;
  }
}

/// One greedy Jacobi sweep lowered onto the dispatched kernels
/// (mdp/kernel.hpp), mirroring rvi_core's vector discipline: the state-0
/// reference residual from a one-state pass, then the fused
/// kernel::rvi_sweep over every state (backup + rewards + tau transform +
/// max in one register-resident pass, vectorized over states on a uniform
/// two- or three-action menu). Both passes store the greedy policy in
/// `policy`, as rvi_core's do on every sweep. Reads `bias_in`, writes
/// `bias_out` (Jacobi, unlike the in-place aos/soa rows, so the two
/// groups are compared only within themselves).
void kernel_jacobi_sweep(const mdp::CompiledModel& model,
                         std::span<const double> rewards,
                         const std::vector<double>& bias_in,
                         std::vector<double>& bias_out,
                         std::vector<std::uint32_t>& policy,
                         mdp::kernel::Isa isa) {
  double span_min = std::numeric_limits<double>::infinity();
  double span_max = -std::numeric_limits<double>::infinity();
  double backup0 = 0.0;
  mdp::kernel::rvi_sweep(model, rewards.data(), kKernelTau, bias_in.data(),
                         0.0, 0, 1, &backup0, policy.data(), &span_min,
                         &span_max, isa);
  mdp::kernel::rvi_sweep(model, rewards.data(), kKernelTau, bias_in.data(),
                         backup0 - bias_in[0], 0, model.num_states(),
                         bias_out.data(), policy.data(), &span_min, &span_max,
                         isa);
}

/// One fixed-policy Jacobi sweep over the CSR columns: per state, only the
/// policy's action is backed up (a restricted CSR backup, the baseline the
/// chain sweep is timed against), with the state-0 reference residual
/// computed up front.
/// Reads `bias_in`, writes `bias_out`.
void csr_eval_sweep(const mdp::CompiledModel& model,
                    std::span<const double> rewards,
                    const std::vector<std::uint32_t>& policy,
                    const std::vector<double>& bias_in,
                    std::vector<double>& bias_out) {
  const mdp::StateId n = model.num_states();
  const mdp::StateId* next_col = model.next();
  const double* prob_col = model.prob();
  const auto backup = [&](mdp::StateId s) {
    const mdp::SaIndex sa = model.sa_index(s, policy[s]);
    double expected_next = 0.0;
    const std::size_t end = model.outcome_end(sa);
    for (std::size_t k = model.outcome_begin(sa); k < end; ++k) {
      expected_next += prob_col[k] * bias_in[next_col[k]];
    }
    return kKernelTau * (rewards[sa] + expected_next) +
           (1.0 - kKernelTau) * bias_in[s];
  };
  const double ref = backup(0) - bias_in[0];
  for (mdp::StateId s = 0; s < n; ++s) {
    bias_out[s] = backup(s) - ref;
  }
}

/// The same sweep over the policy's compacted chain on the dispatched
/// kernel, as rvi_core runs it: the state-0 reference from a one-state
/// pass, then kernel::rvi_eval_sweep over every state.
void chain_eval_sweep(const mdp::PolicyChain& chain,
                      const std::vector<double>& bias_in,
                      std::vector<double>& bias_out, mdp::kernel::Isa isa) {
  double span_min = std::numeric_limits<double>::infinity();
  double span_max = -std::numeric_limits<double>::infinity();
  double backup0 = 0.0;
  mdp::kernel::rvi_eval_sweep(chain, kKernelTau, bias_in.data(), 0.0, 0, 1,
                              &backup0, &span_min, &span_max, isa);
  mdp::kernel::rvi_eval_sweep(chain, kKernelTau, bias_in.data(),
                              backup0 - bias_in[0], 0, chain.num_states(),
                              bias_out.data(), &span_min, &span_max, isa);
}

/// One benchmark row: a sweep variant, its best-of-reps time, and the bias
/// vector it converges to (captured on the first rep; every rep starts
/// from the same zero bias, so reps are deterministic replicas).
struct TimedRow {
  /// "aos" | "soa" | "kernel" | "eval_csr" | "eval" | "kernel3"
  const char* kind;
  mdp::kernel::Isa isa = mdp::kernel::Isa::kScalar;  ///< kernel, eval rows
  std::function<void(std::vector<double>&)> sweep;
  double best_seconds = std::numeric_limits<double>::infinity();
  std::vector<double> result;
};

/// Times every row with reps interleaved round-robin (row A rep 0, row B
/// rep 0, ..., row A rep 1, ...) rather than all reps of one row before
/// the next. On machines with drifting clocks (shared VMs, turbo
/// transitions) sequential phases can see different effective frequencies,
/// which corrupts cross-row ratios; interleaving gives every row samples
/// from the same clock windows, so each row's best-of comes from a fast
/// window available to all.
void time_rows(std::vector<TimedRow>& rows, std::vector<double>& bias,
               int sweeps, int reps) {
  using Clock = std::chrono::steady_clock;
  for (int rep = 0; rep < reps; ++rep) {
    for (TimedRow& row : rows) {
      std::fill(bias.begin(), bias.end(), 0.0);
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < sweeps; ++i) {
        row.sweep(bias);
      }
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      row.best_seconds = std::min(row.best_seconds, seconds);
      if (rep == 0) {
        row.result = bias;
      }
    }
  }
}

int run_kernel_mode(const util::ParsedArgs& args) {
  const std::string out_path = args.get_string("out", "BENCH_kernel.json");
  // 100-sweep reps: short enough that a rep fits inside one quiet clock
  // window on shared/virtualized hosts (a 200-sweep rep spans several and
  // lets the row that happens to sustain boost clocks longest — not the
  // faster kernel — win), long enough to amortize the scratch swap.
  const int sweeps = static_cast<int>(args.get_long("sweeps", 100));

  // The setting-2 grid cell: the largest model the table benches sweep.
  const bu::AttackModel attack = bu::build_attack_model(
      grid_params(bu::Setting::kStickyGate), bu::Utility::kRelativeRevenue);
  const mdp::Model& model = attack.model;
  const mdp::CompiledModel& compiled = *attack.compiled;
  const std::span<const double> rewards{compiled.expected_reward(),
                                        compiled.num_state_actions()};

  std::vector<double> bias(model.num_states(), 0.0);
  // Per-kernel-row Jacobi scratch; deque for stable addresses across
  // push_back (the row lambdas capture pointers into it).
  std::deque<std::vector<double>> scratches;
  std::deque<std::vector<std::uint32_t>> policies;

  std::vector<TimedRow> rows;
  const auto push_row = [](std::vector<TimedRow>& group, const char* kind,
                           mdp::kernel::Isa isa,
                           std::function<void(std::vector<double>&)> fn) {
    TimedRow row;
    row.kind = kind;
    row.isa = isa;
    row.sweep = std::move(fn);
    group.push_back(std::move(row));
  };
  push_row(rows, "aos", mdp::kernel::Isa::kScalar,
           [&](std::vector<double>& b) { aos_sweep(model, rewards, b); });
  push_row(rows, "soa", mdp::kernel::Isa::kScalar,
           [&](std::vector<double>& b) { soa_sweep(compiled, rewards, b); });
  // Dispatched-kernel rows: the same greedy sweep lowered onto the backup
  // kernel (Jacobi discipline), once per ISA this build+CPU carries. All
  // kernel rows must agree bit-for-bit with each other (same expression
  // tree per row); they are tolerance-equivalent, not bit-equal, to the
  // Gauss-Seidel rows above.
  for (const mdp::kernel::Isa isa :
       {mdp::kernel::Isa::kScalar, mdp::kernel::Isa::kAvx2,
        mdp::kernel::Isa::kAvx512}) {
    if (!mdp::kernel::isa_available(isa) || !compiled.has_ell()) {
      continue;
    }
    scratches.emplace_back(model.num_states(), 0.0);
    std::vector<double>* scratch = &scratches.back();
    policies.emplace_back(model.num_states(), 0u);
    std::vector<std::uint32_t>* greedy = &policies.back();
    push_row(rows, "kernel", isa,
             [&, scratch, greedy, isa](std::vector<double>& b) {
               kernel_jacobi_sweep(compiled, rewards, b, *scratch, *greedy,
                                   isa);
               b.swap(*scratch);
             });
  }
  // Policy-evaluation rows. The policy is the greedy one after a short
  // kernel pre-pass from zero bias: a realistic mix of both actions.
  std::vector<std::uint32_t> policy(model.num_states(), 0);
  {
    std::vector<double> warm(model.num_states(), 0.0);
    std::vector<double> next(model.num_states(), 0.0);
    for (int i = 0; i < 20; ++i) {
      double span_min = std::numeric_limits<double>::infinity();
      double span_max = -std::numeric_limits<double>::infinity();
      mdp::kernel::rvi_sweep(compiled, rewards.data(), kKernelTau,
                             warm.data(), 0.0, 0, model.num_states(),
                             next.data(), policy.data(), &span_min,
                             &span_max, mdp::kernel::Isa::kScalar);
      warm.swap(next);
    }
  }
  const mdp::PolicyChain chain(compiled, policy, rewards);
  scratches.emplace_back(model.num_states(), 0.0);
  std::vector<double>* csr_scratch = &scratches.back();
  push_row(rows, "eval_csr", mdp::kernel::Isa::kScalar,
           [&, csr_scratch](std::vector<double>& b) {
             csr_eval_sweep(compiled, rewards, policy, b, *csr_scratch);
             b.swap(*csr_scratch);
           });
  for (const mdp::kernel::Isa isa :
       {mdp::kernel::Isa::kScalar, mdp::kernel::Isa::kAvx2,
        mdp::kernel::Isa::kAvx512}) {
    if (!mdp::kernel::isa_available(isa)) {
      continue;
    }
    scratches.emplace_back(model.num_states(), 0.0);
    std::vector<double>* scratch = &scratches.back();
    push_row(rows, "eval", isa, [&, scratch, isa](std::vector<double>& b) {
      chain_eval_sweep(chain, b, *scratch, isa);
      b.swap(*scratch);
    });
  }
  constexpr int kReps = 7;
  time_rows(rows, bias, sweeps, kReps);

  // Three-action rows: Table 4's setting-2 cell at alpha = 1%, b:g = 1:1.
  bu::AttackParams wait_params = bu::grid_cell(0.01, 1, 1);
  wait_params.setting = bu::Setting::kStickyGate;
  const bu::AttackModel wait_attack =
      bu::build_attack_model(wait_params, bu::Utility::kOrphaning);
  const mdp::CompiledModel& wait_model = *wait_attack.compiled;
  const std::span<const double> wait_rewards{wait_model.expected_reward(),
                                             wait_model.num_state_actions()};
  std::vector<TimedRow> wait_rows;
  std::deque<std::vector<std::uint32_t>> wait_policies;
  for (const mdp::kernel::Isa isa :
       {mdp::kernel::Isa::kScalar, mdp::kernel::Isa::kAvx2,
        mdp::kernel::Isa::kAvx512}) {
    if (!mdp::kernel::isa_available(isa)) {
      continue;
    }
    scratches.emplace_back(wait_model.num_states(), 0.0);
    std::vector<double>* scratch = &scratches.back();
    wait_policies.emplace_back(wait_model.num_states(), 0u);
    std::vector<std::uint32_t>* greedy = &wait_policies.back();
    push_row(wait_rows, "kernel3", isa,
             [&, scratch, greedy, isa](std::vector<double>& b) {
               kernel_jacobi_sweep(wait_model, wait_rewards, b, *scratch,
                                   *greedy, isa);
               b.swap(*scratch);
             });
  }
  std::vector<double> wait_bias(wait_model.num_states(), 0.0);
  time_rows(wait_rows, wait_bias, sweeps, kReps);

  const auto row_rate = [&](const char* kind) {
    for (const TimedRow& row : rows) {
      if (std::string_view(row.kind) == kind) {
        return static_cast<double>(sweeps) / row.best_seconds;
      }
    }
    return 0.0;
  };
  const auto rows_of = [&](std::string_view kind) {
    std::vector<const TimedRow*> matching;
    for (const TimedRow& row : rows) {
      if (row.kind == kind) {
        matching.push_back(&row);
      }
    }
    return matching;
  };
  // == (not memcmp): ELL padding may flip a zero's sign.
  const auto all_equal = [](const std::vector<const TimedRow*>& group,
                            const std::vector<double>& expected) {
    for (const TimedRow* row : group) {
      if (row->result.size() != expected.size()) {
        return false;
      }
      for (std::size_t s = 0; s < expected.size(); ++s) {
        if (row->result[s] != expected[s]) {
          return false;
        }
      }
    }
    return true;
  };
  const std::vector<const TimedRow*> kernel_rows = rows_of("kernel");
  const std::vector<const TimedRow*> eval_rows = rows_of("eval");
  const bool bit_identical =
      std::memcmp(rows[0].result.data(), rows[1].result.data(),
                  rows[0].result.size() * sizeof(double)) == 0;
  const bool kernel_bit_identical =
      kernel_rows.empty() ||
      (all_equal(kernel_rows, kernel_rows.front()->result) &&
       std::all_of(policies.begin(), policies.end(),
                   [&](const std::vector<std::uint32_t>& greedy) {
                     return greedy == policies.front();
                   }));
  const std::vector<double>& csr_eval = rows_of("eval_csr").front()->result;
  const bool eval_bit_identical = all_equal(eval_rows, csr_eval);
  std::vector<const TimedRow*> wait_kernel_rows;
  for (const TimedRow& row : wait_rows) {
    wait_kernel_rows.push_back(&row);
  }
  const bool wait_bit_identical =
      all_equal(wait_kernel_rows, wait_rows.front().result) &&
      std::all_of(wait_policies.begin(), wait_policies.end(),
                  [&](const std::vector<std::uint32_t>& greedy) {
                    return greedy == wait_policies.front();
                  });

  const double aos_rate = row_rate("aos");
  const double soa_rate = row_rate("soa");
  const double eval_csr_rate = row_rate("eval_csr");
  const double speedup = soa_rate / aos_rate;
  const double threshold = 1.5;

  // The acceptance row: what auto-dispatch actually picks on this machine,
  // compared against the scalar SoA sweep every solver ran before the
  // kernel layer existed.
  const mdp::kernel::Isa dispatched =
      mdp::kernel::resolve(mdp::kernel::Request::kAuto);
  double dispatched_rate = 0.0;
  for (const TimedRow* row : kernel_rows) {
    if (row->isa == dispatched) {
      dispatched_rate = static_cast<double>(sweeps) / row->best_seconds;
    }
  }
  const double vector_speedup =
      soa_rate > 0.0 ? dispatched_rate / soa_rate : 0.0;
  const double vector_threshold = 1.3;
  // Only gate when a vector ISA is actually available; a scalar-only
  // machine trivially "dispatches" scalar at ~1.0x.
  const bool vector_pass = dispatched == mdp::kernel::Isa::kScalar ||
                           vector_speedup >= vector_threshold;
  // The three-action gate: the dispatched sweep against the scalar
  // three-action sweep (the loop Table 4 ran before its menus vectorized).
  const auto wait_rate = [&](mdp::kernel::Isa isa) {
    for (const TimedRow& row : wait_rows) {
      if (row.isa == isa) {
        return static_cast<double>(sweeps) / row.best_seconds;
      }
    }
    return 0.0;
  };
  const double wait_scalar_rate = wait_rate(mdp::kernel::Isa::kScalar);
  const double wait_speedup = wait_rate(dispatched) / wait_scalar_rate;
  const double wait_threshold = 2.0;
  const bool wait_pass = dispatched == mdp::kernel::Isa::kScalar ||
                         wait_speedup >= wait_threshold;

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"mode\": \"kernel\",\n"
       << "  \"model\": \"bu setting-2 alpha=0.25 beta=0.30 gamma=0.45\",\n"
       << "  \"states\": " << model.num_states() << ",\n"
       << "  \"state_actions\": " << model.num_state_actions() << ",\n"
       << "  \"sweeps_per_rep\": " << sweeps << ",\n"
       << "  \"aos_sweeps_per_sec\": " << aos_rate << ",\n"
       << "  \"soa_sweeps_per_sec\": " << soa_rate << ",\n"
       << "  \"speedup_soa_vs_aos\": " << speedup << ",\n"
       << "  \"threshold\": " << threshold << ",\n"
       << "  \"pass\": " << (speedup >= threshold ? "true" : "false") << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ",\n"
       << "  \"kernel_rows\": [";
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    const double rate =
        static_cast<double>(sweeps) / kernel_rows[i]->best_seconds;
    json << (i == 0 ? "\n" : ",\n") << "    {\"isa\": \""
         << mdp::kernel::to_string(kernel_rows[i]->isa)
         << "\", \"sweeps_per_sec\": " << rate << ", \"speedup_vs_soa\": "
         << (soa_rate > 0.0 ? rate / soa_rate : 0.0) << "}";
  }
  json << "\n  ],\n"
       << "  \"kernel_bit_identical\": "
       << (kernel_bit_identical ? "true" : "false") << ",\n"
       << "  \"eval_csr_sweeps_per_sec\": " << eval_csr_rate << ",\n"
       << "  \"eval_rows\": [";
  for (std::size_t i = 0; i < eval_rows.size(); ++i) {
    const double rate =
        static_cast<double>(sweeps) / eval_rows[i]->best_seconds;
    json << (i == 0 ? "\n" : ",\n") << "    {\"isa\": \""
         << mdp::kernel::to_string(eval_rows[i]->isa)
         << "\", \"sweeps_per_sec\": " << rate << ", \"speedup_vs_csr\": "
         << (eval_csr_rate > 0.0 ? rate / eval_csr_rate : 0.0) << "}";
  }
  json << "\n  ],\n"
       << "  \"eval_bit_identical\": "
       << (eval_bit_identical ? "true" : "false") << ",\n"
       << "  \"dispatched_isa\": \"" << mdp::kernel::to_string(dispatched)
       << "\",\n"
       << "  \"speedup_vector_vs_soa\": " << vector_speedup << ",\n"
       << "  \"vector_threshold\": " << vector_threshold << ",\n"
       << "  \"vector_pass\": " << (vector_pass ? "true" : "false") << ",\n"
       << "  \"three_action_model\": \"bu setting-2 u3 alpha=0.01 "
          "b:g=1:1\",\n"
       << "  \"three_action_states\": " << wait_model.num_states() << ",\n"
       << "  \"three_action_rows\": [";
  for (std::size_t i = 0; i < wait_rows.size(); ++i) {
    const double rate =
        static_cast<double>(sweeps) / wait_rows[i].best_seconds;
    json << (i == 0 ? "\n" : ",\n") << "    {\"isa\": \""
         << mdp::kernel::to_string(wait_rows[i].isa)
         << "\", \"sweeps_per_sec\": " << rate
         << ", \"speedup_vs_scalar\": " << rate / wait_scalar_rate << "}";
  }
  json << "\n  ],\n"
       << "  \"three_action_bit_identical\": "
       << (wait_bit_identical ? "true" : "false") << ",\n"
       << "  \"three_action_speedup_vector_vs_scalar\": " << wait_speedup
       << ",\n"
       << "  \"three_action_threshold\": " << wait_threshold << ",\n"
       << "  \"three_action_pass\": " << (wait_pass ? "true" : "false")
       << "\n}\n";
  json.close();

  std::printf(
      "kernel sweep microbench (single thread, %d sweeps/rep, best of %d "
      "interleaved reps)\n"
      "  model: %u states, %zu state-actions\n"
      "  AoS (seed Model path):      %10.1f sweeps/s\n"
      "  SoA (CompiledModel):        %10.1f sweeps/s  (%.2fx%s)\n"
      "  bias vectors bit-identical: %s\n",
      sweeps, kReps, model.num_states(), model.num_state_actions(), aos_rate,
      soa_rate, speedup, speedup >= threshold ? ", >= 1.5x target" : "",
      bit_identical ? "yes" : "NO (BUG)");
  for (const TimedRow* row : kernel_rows) {
    const double rate = static_cast<double>(sweeps) / row->best_seconds;
    std::printf("  kernel %-7s (Jacobi):    %10.1f sweeps/s  (%.2fx vs SoA)\n",
                std::string(mdp::kernel::to_string(row->isa)).c_str(), rate,
                soa_rate > 0.0 ? rate / soa_rate : 0.0);
  }
  std::printf("  eval CSR (restricted):      %10.1f sweeps/s\n",
              eval_csr_rate);
  for (const TimedRow* row : eval_rows) {
    const double rate = static_cast<double>(sweeps) / row->best_seconds;
    std::printf("  eval %-7s (chain):       %10.1f sweeps/s  (%.2fx vs CSR)\n",
                std::string(mdp::kernel::to_string(row->isa)).c_str(), rate,
                eval_csr_rate > 0.0 ? rate / eval_csr_rate : 0.0);
  }
  std::printf(
      "  eval rows bit-identical:    %s\n"
      "  kernel rows bit-identical:  %s\n"
      "  dispatched ISA: %s  (%.2fx vs scalar SoA%s)\n"
      "  -> %s\n",
      eval_bit_identical ? "yes" : "NO (BUG)",
      kernel_bit_identical ? "yes" : "NO (BUG)",
      std::string(mdp::kernel::to_string(dispatched)).c_str(), vector_speedup,
      vector_pass ? (dispatched == mdp::kernel::Isa::kScalar
                         ? ""
                         : ", >= 1.3x target")
                  : ", BELOW 1.3x target",
      out_path.c_str());
  std::printf("  three-action model (Table 4 u3 setting 2): %u states\n",
              wait_model.num_states());
  for (const TimedRow& row : wait_rows) {
    const double rate = static_cast<double>(sweeps) / row.best_seconds;
    std::printf("  kernel3 %-7s (Jacobi):   %10.1f sweeps/s  (%.2fx vs "
                "scalar)\n",
                std::string(mdp::kernel::to_string(row.isa)).c_str(), rate,
                rate / wait_scalar_rate);
  }
  std::printf(
      "  kernel3 rows bit-identical: %s\n"
      "  dispatched three-action sweep: %.2fx vs scalar%s\n",
      wait_bit_identical ? "yes" : "NO (BUG)", wait_speedup,
      wait_pass ? (dispatched == mdp::kernel::Isa::kScalar
                       ? ""
                       : ", >= 2x target")
                : ", BELOW 2x target");
  return bit_identical && kernel_bit_identical && eval_bit_identical &&
                 vector_pass && wait_bit_identical && wait_pass
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bvc::util::ArgParser parser(
      "bench_solver_micro",
      "google-benchmark microbenchmarks of the numerical core");
  bvc::bench::add_obs_args(parser);
  parser.add({
      {"mode", bvc::util::ArgType::kString, "kernel",
       "run the standalone kernel-sweep comparison instead of "
       "google-benchmark", ""},
      {"out", bvc::util::ArgType::kString, "FILE",
       "kernel mode: JSON results path", "BENCH_kernel.json"},
      {"sweeps", bvc::util::ArgType::kLong, "N",
       "kernel mode: sweeps per repetition", "100"},
  });
  // Everything else belongs to google-benchmark (--benchmark_filter etc.).
  parser.allow_prefix("benchmark_");
  parser.allow_prefix("v");
  const bvc::util::ParsedArgs args = parser.parse(argc, argv);

  // The session must outlive the benchmark run.
  bvc::bench::ObsSession obs(args);
  const std::string mode = args.get_string("mode", "");
  if (mode == "kernel") {
    return run_kernel_mode(args);
  }
  if (!mode.empty()) {
    std::fprintf(stderr, "bench_solver_micro: unknown --mode '%s'\n",
                 mode.c_str());
    return 2;
  }
  // google-benchmark rejects arguments it does not recognize, so it gets
  // only what parse() passed through, plus the positionals.
  std::vector<std::string> forwarded = {args.argv().front()};
  forwarded.insert(forwarded.end(), args.passthrough().begin(),
                   args.passthrough().end());
  forwarded.insert(forwarded.end(), args.positional().begin(),
                   args.positional().end());
  std::vector<char*> bench_argv;
  for (std::string& token : forwarded) {
    bench_argv.push_back(token.data());
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
