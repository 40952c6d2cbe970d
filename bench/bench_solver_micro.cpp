// Sweep kernel microbenchmark: times the raw Bellman-backup sweep — the
// inner loop every solver and every table cell spends its time in — per
// sweep variant and ISA, checks that the rows agree bit-for-bit and that
// the dispatched ISA clears its speedup gates, and writes the results to
// BENCH_kernel.json (scripts/bench_record.sh re-records the committed one).
// Exits 1 when a check or gate fails.
//
// The baseline row ("soa") is a plain serial Gauss-Seidel greedy sweep
// over the CompiledModel's CSR next/prob columns; the dispatched kernel
// rows run the greedy Jacobi sweep once per ISA, must agree bit-for-bit
// among themselves, and the dispatched one must run at least 1.3x the
// baseline.
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
#include "bu/attack_model.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/kernel.hpp"

namespace {

using namespace bvc;

constexpr double kKernelTau = 0.999;

/// One in-place Gauss-Seidel greedy sweep over the CompiledModel's CSR
/// columns, the seed solver's serial discipline (state-0 residual
/// subtracted in-sweep).
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
/// `bias_out` (Jacobi, unlike the in-place soa row, so the kernel rows
/// are compared only among themselves).
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
  /// "soa" | "kernel" | "eval_csr" | "eval" | "kernel3"
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

int run_comparison(const util::ParsedArgs& args) {
  const std::string out_path = args.get_string("out", "BENCH_kernel.json");
  std::ofstream json = bench::open_output("out", out_path);
  // 100-sweep reps: short enough that a rep fits inside one quiet clock
  // window on shared/virtualized hosts (a 200-sweep rep spans several and
  // lets the row that happens to sustain boost clocks longest — not the
  // faster kernel — win), long enough to amortize the scratch swap.
  const int sweeps = static_cast<int>(args.get_long("sweeps", 100));

  // The setting-2 grid cell: the largest model the table benches sweep.
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.setting = bu::Setting::kStickyGate;
  const bu::AttackModel attack =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  const mdp::CompiledModel& compiled = *attack.compiled;
  const std::span<const double> rewards{compiled.expected_reward(),
                                        compiled.num_state_actions()};

  std::vector<double> bias(compiled.num_states(), 0.0);
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
  push_row(rows, "soa", mdp::kernel::Isa::kScalar,
           [&](std::vector<double>& b) { soa_sweep(compiled, rewards, b); });
  // Dispatched-kernel rows: the same greedy sweep lowered onto the backup
  // kernel (Jacobi discipline), once per ISA this build+CPU carries. All
  // kernel rows must agree bit-for-bit with each other (same expression
  // tree per row); they are tolerance-equivalent, not bit-equal, to the
  // Gauss-Seidel row above.
  for (const mdp::kernel::Isa isa :
       {mdp::kernel::Isa::kScalar, mdp::kernel::Isa::kAvx2,
        mdp::kernel::Isa::kAvx512}) {
    if (!mdp::kernel::isa_available(isa) || !compiled.has_ell()) {
      continue;
    }
    scratches.emplace_back(compiled.num_states(), 0.0);
    std::vector<double>* scratch = &scratches.back();
    policies.emplace_back(compiled.num_states(), 0u);
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
  std::vector<std::uint32_t> policy(compiled.num_states(), 0);
  {
    std::vector<double> warm(compiled.num_states(), 0.0);
    std::vector<double> next(compiled.num_states(), 0.0);
    for (int i = 0; i < 20; ++i) {
      double span_min = std::numeric_limits<double>::infinity();
      double span_max = -std::numeric_limits<double>::infinity();
      mdp::kernel::rvi_sweep(compiled, rewards.data(), kKernelTau,
                             warm.data(), 0.0, 0, compiled.num_states(),
                             next.data(), policy.data(), &span_min,
                             &span_max, mdp::kernel::Isa::kScalar);
      warm.swap(next);
    }
  }
  const mdp::PolicyChain chain(compiled, policy, rewards);
  scratches.emplace_back(compiled.num_states(), 0.0);
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
    scratches.emplace_back(compiled.num_states(), 0.0);
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

  const double soa_rate = row_rate("soa");
  const double eval_csr_rate = row_rate("eval_csr");

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

  json << "{\n"
       << "  \"mode\": \"kernel\",\n"
       << "  \"model\": \"bu setting-2 alpha=0.25 beta=0.30 gamma=0.45\",\n"
       << "  \"states\": " << compiled.num_states() << ",\n"
       << "  \"state_actions\": " << compiled.num_state_actions() << ",\n"
       << "  \"sweeps_per_rep\": " << sweeps << ",\n"
       << "  \"soa_sweeps_per_sec\": " << soa_rate << ",\n"
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
      "  SoA (CompiledModel):        %10.1f sweeps/s\n",
      sweeps, kReps, compiled.num_states(), compiled.num_state_actions(),
      soa_rate);
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
  return kernel_bit_identical && eval_bit_identical && vector_pass &&
                 wait_bit_identical && wait_pass
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bvc::util::ArgParser parser(
      "bench_solver_micro",
      "time the sweep kernels per ISA and write BENCH_kernel.json");
  bvc::bench::add_obs_args(parser);
  parser.add({
      {"out", bvc::util::ArgType::kString, "FILE", "JSON results path",
       "BENCH_kernel.json"},
      {"sweeps", bvc::util::ArgType::kLong, "N", "sweeps per repetition",
       "100"},
  });
  const bvc::util::ParsedArgs args = parser.parse(argc, argv);
  bvc::bench::ObsSession obs(args);
  return run_comparison(args);
}
