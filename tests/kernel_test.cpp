// The vectorized sweep kernel layer (mdp/kernel.hpp): dispatch
// vocabulary, bit-identical scalar/AVX2/AVX-512 fused sweeps over two- and
// three-action menus (including remainder lanes, split ranges, forced
// argmax ties and ragged menus), the fixed-policy chain
// sweep against a greedy sweep of the policy's
// one-action model, the palette-coded AVX-512 bodies on palettes of 1, 9
// and 16 values, the paper's models all taking the coded path,
// solver-level bit-identity of every vector ISA against the scalar
// request (optimizing and evaluating), and the sweep path the rvi.solve
// span names (uncoded models run avx2 under an avx512 request).
//
// Vector-ISA cases GTEST_SKIP when the build or CPU lacks the ISA, so the
// suite is green (not red) on machines without AVX2/AVX-512.
#include "mdp/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "btc/selfish_mining.hpp"
#include "bu/attack_analysis.hpp"
#include "bu/attack_model.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/batch.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/model.hpp"
#include "mdp/ratio.hpp"
#include "obs/trace.hpp"

namespace {

using namespace bvc;
using mdp::kernel::Isa;
using mdp::kernel::Request;

/// Restores the process-wide kernel request on scope exit so one test's
/// set_requested never leaks into another (or into other suites).
class ScopedKernelRequest {
 public:
  explicit ScopedKernelRequest(Request request)
      : previous_(mdp::kernel::requested()) {
    mdp::kernel::set_requested(request);
  }
  ~ScopedKernelRequest() { mdp::kernel::set_requested(previous_); }
  ScopedKernelRequest(const ScopedKernelRequest&) = delete;
  ScopedKernelRequest& operator=(const ScopedKernelRequest&) = delete;

 private:
  Request previous_;
};

/// A deterministic model with deliberately ragged action widths (1..5
/// outcomes) and a state-action count chosen to exercise both full vector
/// blocks and the scalar remainder for 4- and 8-lane kernels.
mdp::Model ragged_model(mdp::StateId num_states) {
  mdp::ModelBuilder builder(num_states);
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  const auto next_unit = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(seed >> 11) / 9007199254740992.0;
  };
  for (mdp::StateId s = 0; s < num_states; ++s) {
    const std::size_t actions = 1 + s % 3;
    for (std::size_t a = 0; a < actions; ++a) {
      builder.begin_action(s, static_cast<mdp::ActionLabel>(a));
      const std::size_t width = 1 + (s + a) % 5;
      double remaining = 1.0;
      for (std::size_t j = 0; j < width; ++j) {
        const double p =
            j + 1 == width ? remaining : remaining * (0.2 + 0.6 * next_unit());
        remaining -= p;
        const mdp::StateId next =
            static_cast<mdp::StateId>((s * 7 + a * 3 + j * 5) % num_states);
        builder.add_outcome(next, p, next_unit(), next_unit());
      }
    }
  }
  return builder.build();
}

/// Outcome rows whose dyadic probabilities sum to exactly 1, so the
/// builder keeps every probability's bits and a model built from them
/// takes exactly their distinct values (plus 0.0 where rows are padded).
using Rows = std::vector<std::vector<double>>;

/// A model of palette-bounded probabilities in the attack-model shapes: a
/// uniform menu of `actions` (two, or three with Table 4's Wait), where
/// action a of state s takes row (5s + 3a) % rows.size() of `rows`, with
/// scattered next states and dyadic rewards/weights.
mdp::Model palette_uniform_model(mdp::StateId num_states, std::size_t actions,
                                 const Rows& rows) {
  mdp::ModelBuilder builder(num_states);
  for (mdp::StateId s = 0; s < num_states; ++s) {
    for (std::size_t a = 0; a < actions; ++a) {
      builder.begin_action(s, static_cast<mdp::ActionLabel>(a));
      const std::vector<double>& row = rows[(s * 5 + a * 3) % rows.size()];
      for (std::size_t j = 0; j < row.size(); ++j) {
        builder.add_outcome(
            static_cast<mdp::StateId>((s * 13 + a * 7 + j * 3 + 1) %
                                      num_states),
            row[j], 0.125 * static_cast<double>((s * 3 + a + j) % 9),
            0.25 * static_cast<double>((s + j) % 5));
      }
    }
  }
  return builder.build();
}

/// One value: every action moves deterministically (probability 1.0).
const Rows kOneValueRows = {{1.0}};
/// Eight probabilities; the mixed widths pad with 0.0, the ninth value.
const Rows kNineValueRows = {{1.0},          {0.5, 0.5},
                             {0.25, 0.75},   {0.125, 0.875},
                             {0.375, 0.625}, {0.25, 0.25, 0.5}};
/// Fifteen probabilities plus the 0.0 padding: a full palette, whose last
/// eight entries sit in the second palette register.
const Rows kSixteenValueRows = {
    {1.0},          {0.5, 0.5},         {0.25, 0.75},
    {0.125, 0.875}, {0.0625, 0.9375},   {0.03125, 0.96875},
    {0.015625, 0.984375},               {0.375, 0.625},
    {0.1875, 0.0625, 0.75}};

std::vector<double> ramp_bias(std::size_t num_states) {
  std::vector<double> bias(num_states);
  for (std::size_t s = 0; s < num_states; ++s) {
    bias[s] = 0.25 * static_cast<double>(s) - 3.0;
  }
  return bias;
}

TEST(Kernel, ParseRequestVocabulary) {
  EXPECT_EQ(mdp::kernel::parse_request("auto"), Request::kAuto);
  EXPECT_EQ(mdp::kernel::parse_request("scalar"), Request::kScalar);
  EXPECT_EQ(mdp::kernel::parse_request("avx2"), Request::kAvx2);
  EXPECT_EQ(mdp::kernel::parse_request("avx512"), Request::kAvx512);
  EXPECT_FALSE(mdp::kernel::parse_request("sse2").has_value());
  EXPECT_FALSE(mdp::kernel::parse_request("").has_value());
  EXPECT_FALSE(mdp::kernel::parse_request("AVX2").has_value());

  EXPECT_EQ(mdp::kernel::to_string(Isa::kScalar), "scalar");
  EXPECT_EQ(mdp::kernel::to_string(Isa::kAvx2), "avx2");
  EXPECT_EQ(mdp::kernel::to_string(Isa::kAvx512), "avx512");
  EXPECT_EQ(mdp::kernel::to_string(Request::kAuto), "auto");
}

TEST(Kernel, ResolveClampsToAvailability) {
  EXPECT_TRUE(mdp::kernel::isa_available(Isa::kScalar));
  EXPECT_EQ(mdp::kernel::resolve(Request::kScalar), Isa::kScalar);

  const Isa best = mdp::kernel::resolve(Request::kAuto);
  EXPECT_TRUE(mdp::kernel::isa_available(best));
  if (mdp::kernel::isa_available(Isa::kAvx512)) {
    // Auto calibrates between the vector ISAs (either is bit-identical);
    // it must still never fall back to scalar when vectors are usable,
    // and an explicit request is honored as given.
    EXPECT_NE(best, Isa::kScalar);
    EXPECT_EQ(mdp::kernel::resolve(Request::kAvx512), Isa::kAvx512);
  } else if (mdp::kernel::isa_available(Isa::kAvx2)) {
    EXPECT_EQ(best, Isa::kAvx2);
    // An unavailable avx512 request degrades to the best available.
    EXPECT_EQ(mdp::kernel::resolve(Request::kAvx512), Isa::kAvx2);
  } else {
    EXPECT_EQ(best, Isa::kScalar);
    EXPECT_EQ(mdp::kernel::resolve(Request::kAvx2), Isa::kScalar);
  }

  // set_requested drives the zero-argument resolve.
  {
    const ScopedKernelRequest scoped(Request::kScalar);
    EXPECT_EQ(mdp::kernel::requested(), Request::kScalar);
    EXPECT_EQ(mdp::kernel::resolve(), Isa::kScalar);
  }
}

// ---- fused RVI sweep -----------------------------------------------------

/// A deterministic uniform two-action model (the greedy attack-model shape
/// the vector fused sweep specializes for), with three outcomes per action
/// and a state count that is not a multiple of either vector block size.
mdp::Model uniform_two_action_model(mdp::StateId num_states) {
  mdp::ModelBuilder builder(num_states);
  std::uint64_t seed = 0xda942042e4dd58b5ULL;
  const auto next_unit = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(seed >> 11) / 9007199254740992.0;
  };
  for (mdp::StateId s = 0; s < num_states; ++s) {
    for (std::size_t a = 0; a < 2; ++a) {
      builder.begin_action(s, static_cast<mdp::ActionLabel>(a));
      double remaining = 1.0;
      for (std::size_t j = 0; j < 3; ++j) {
        const double p =
            j == 2 ? remaining : remaining * (0.2 + 0.5 * next_unit());
        remaining -= p;
        const mdp::StateId next =
            static_cast<mdp::StateId>((s * 13 + a * 7 + j * 3 + 1) %
                                      num_states);
        builder.add_outcome(next, p, next_unit(), next_unit());
      }
    }
  }
  return builder.build();
}

/// A uniform three-action model (Table 4's menu shape) whose states cycle
/// through forced argmax ties. Actions are built from dyadic rows, so the
/// mirror is coded and both vector ISAs run their own bodies. By s % 5:
/// 0 — actions 0 and 1 are copies and action 2 is worse; 1 — actions 1
/// and 2 tie above action 0; 2 — actions 0 and 2 tie above action 1;
/// 3 — three distinct actions; 4 — three copies. A copy repeats the
/// outcome rows and rewards of the action it copies, so the tied values
/// are bit-identical, and the worse action's rewards are 64 lower, more
/// than any spread of ramp_bias over fewer than 200 states.
mdp::Model three_action_tie_model(mdp::StateId num_states) {
  mdp::ModelBuilder builder(num_states);
  for (mdp::StateId s = 0; s < num_states; ++s) {
    // source[a]: the action whose row action a repeats; worse: the
    // penalized action (3 for none).
    std::size_t source[3] = {0, 1, 2};
    std::size_t worse = 3;
    switch (s % 5) {
      case 0:
        source[1] = 0;
        worse = 2;
        break;
      case 1:
        source[2] = 1;
        worse = 0;
        break;
      case 2:
        source[2] = 0;
        worse = 1;
        break;
      case 4:
        source[1] = source[2] = 0;
        break;
      default:
        break;
    }
    for (std::size_t a = 0; a < 3; ++a) {
      builder.begin_action(s, static_cast<mdp::ActionLabel>(a));
      const std::size_t k = source[a];
      const std::vector<double>& row =
          kNineValueRows[(s * 5 + k * 3) % kNineValueRows.size()];
      for (std::size_t j = 0; j < row.size(); ++j) {
        const double reward = 0.125 * static_cast<double>((s * 3 + k + j) % 9);
        builder.add_outcome(
            static_cast<mdp::StateId>((s * 13 + k * 7 + j * 3 + 1) %
                                      num_states),
            row[j], a == worse ? reward - 64.0 : reward);
      }
    }
  }
  return builder.build();
}

/// Full-range and split-range fused sweeps under `isa` against the scalar
/// reference: bias, policy, and span must agree bit-for-bit (== on doubles).
void expect_rvi_sweep_equivalence(const mdp::CompiledModel& compiled,
                                  Isa isa) {
  const mdp::StateId n = static_cast<mdp::StateId>(compiled.num_states());
  const std::vector<double> bias = ramp_bias(compiled.num_states());
  const double* rewards = compiled.expected_reward();
  const double tau = 0.875;     // exact dyadic, away from 1
  const double ref = 0.03125;   // exact dyadic reference residual
  const double inf = std::numeric_limits<double>::infinity();

  std::vector<double> out_scalar(n, -7.0);
  std::vector<double> out_vector(n, -8.0);
  std::vector<std::uint32_t> pol_scalar(n, 99u);
  std::vector<std::uint32_t> pol_vector(n, 88u);
  double min_scalar = inf, max_scalar = -inf;
  double min_vector = inf, max_vector = -inf;
  mdp::kernel::rvi_sweep(compiled, rewards, tau, bias.data(), ref, 0, n,
                         out_scalar.data(), pol_scalar.data(), &min_scalar,
                         &max_scalar, Isa::kScalar);
  mdp::kernel::rvi_sweep(compiled, rewards, tau, bias.data(), ref, 0, n,
                         out_vector.data(), pol_vector.data(), &min_vector,
                         &max_vector, isa);
  for (mdp::StateId s = 0; s < n; ++s) {
    EXPECT_EQ(out_scalar[s], out_vector[s]) << "state=" << s;
    EXPECT_EQ(pol_scalar[s], pol_vector[s]) << "state=" << s;
  }
  EXPECT_EQ(min_scalar, min_vector);
  EXPECT_EQ(max_scalar, max_vector);

  // Split ranges (boundaries off any lane multiple) with per-range span
  // accumulators: the solver sweeps [0, 1) for its reference residual, and
  // a range may start or end mid-vector.
  for (const mdp::StateId cut :
       {mdp::StateId{1}, mdp::StateId{5}, n / 3 + 1, n - 3}) {
    std::vector<double> out_split(n, -9.0);
    std::vector<std::uint32_t> pol_split(n, 77u);
    double min_a = inf, max_a = -inf, min_b = inf, max_b = -inf;
    mdp::kernel::rvi_sweep(compiled, rewards, tau, bias.data(), ref, 0, cut,
                           out_split.data(), pol_split.data(), &min_a, &max_a,
                           isa);
    mdp::kernel::rvi_sweep(compiled, rewards, tau, bias.data(), ref, cut, n,
                           out_split.data(), pol_split.data(), &min_b, &max_b,
                           isa);
    for (mdp::StateId s = 0; s < n; ++s) {
      EXPECT_EQ(out_scalar[s], out_split[s])
          << "cut=" << cut << " state=" << s;
      EXPECT_EQ(pol_scalar[s], pol_split[s])
          << "cut=" << cut << " state=" << s;
    }
    EXPECT_EQ(min_scalar, std::min(min_a, min_b)) << "cut=" << cut;
    EXPECT_EQ(max_scalar, std::max(max_a, max_b)) << "cut=" << cut;
  }
}

void run_rvi_sweep_suite(Isa isa) {
  if (!mdp::kernel::isa_available(isa)) {
    GTEST_SKIP() << mdp::kernel::to_string(isa)
                 << " not available on this build/CPU";
  }
  // The specialized shape: uniform two actions, ELL width 3. Its random
  // probabilities carry no codes, so avx512 runs avx2 here; the coded
  // bodies are Kernel.CodedAvx512BodiesMatchScalarBitExact's.
  {
    const mdp::CompiledModel compiled =
        mdp::CompiledModel::compile(uniform_two_action_model(137));
    ASSERT_TRUE(compiled.has_ell());
    ASSERT_FALSE(compiled.has_codes());
    ASSERT_EQ(compiled.uniform_actions(), 2u);
    expect_rvi_sweep_equivalence(compiled, isa);
  }
  // Uniform three actions with forced ties: 139 states, a multiple of
  // neither 8 nor 16, so the split at 5 sweeps a range that starts and
  // ends mid-vector. Coded, so each ISA runs its own three-action body.
  {
    const mdp::CompiledModel compiled =
        mdp::CompiledModel::compile(three_action_tie_model(139));
    ASSERT_TRUE(compiled.has_codes());
    ASSERT_EQ(compiled.uniform_actions(), 3u);
    ASSERT_EQ(mdp::kernel::rvi_sweep_isa(compiled, isa), isa);
    expect_rvi_sweep_equivalence(compiled, isa);
    // The ties are real: every tie state keeps the lower tied action.
    const mdp::StateId n = compiled.num_states();
    const std::vector<double> bias = ramp_bias(n);
    std::vector<double> out(n);
    std::vector<std::uint32_t> policy(n, 99u);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    mdp::kernel::rvi_sweep(compiled, compiled.expected_reward(), 0.875,
                           bias.data(), 0.0, 0, n, out.data(), policy.data(),
                           &lo, &hi, isa);
    constexpr std::uint32_t kKept[5] = {0, 1, 0, 99, 0};
    for (mdp::StateId s = 0; s < n; ++s) {
      if (s % 5 != 3) {
        EXPECT_EQ(policy[s], kKept[s % 5]) << "state=" << s;
      }
    }
  }
  // Ragged action menus: the dispatcher must fall back to scalar and the
  // answer is (trivially) bit-identical. This guards the gate condition.
  {
    const mdp::CompiledModel compiled =
        mdp::CompiledModel::compile(ragged_model(53));
    ASSERT_NE(compiled.uniform_actions(), 2u);
    expect_rvi_sweep_equivalence(compiled, isa);
  }
  // A real attack model (the production shape, remainder included).
  {
    const bu::AttackParams params = [] {
      bu::AttackParams p;
      p.alpha = 0.3;
      p.beta = 0.25;
      p.gamma = 0.45;
      p.setting = bu::Setting::kNoStickyGate;
      p.ad = 6;
      return p;
    }();
    const bu::AttackModel attack =
        bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
    const mdp::CompiledModel compiled =
        mdp::CompiledModel::compile(attack.model);
    expect_rvi_sweep_equivalence(compiled, isa);
  }
}

TEST(Kernel, RviSweepAvx2MatchesScalarBitExact) {
  run_rvi_sweep_suite(Isa::kAvx2);
}

TEST(Kernel, RviSweepAvx512MatchesScalarBitExact) {
  run_rvi_sweep_suite(Isa::kAvx512);
}

// ---- fixed-policy chain sweep --------------------------------------------

/// A model with `menu(s)` actions at state s and `width(s, a)` outcomes per
/// action, whose probabilities are multiples of 1/64. Their sums are
/// exact, so ModelBuilder's renormalization leaves them unchanged and a row
/// rebuilt from the compiled columns keeps its bits.
mdp::Model dyadic_model(mdp::StateId num_states,
                        std::size_t (*menu)(mdp::StateId),
                        std::size_t (*width)(mdp::StateId, std::size_t)) {
  mdp::ModelBuilder builder(num_states);
  for (mdp::StateId s = 0; s < num_states; ++s) {
    for (std::size_t a = 0; a < menu(s); ++a) {
      builder.begin_action(s, static_cast<mdp::ActionLabel>(a));
      const std::size_t outcomes = width(s, a);
      double remaining = 1.0;
      for (std::size_t j = 0; j < outcomes; ++j) {
        // At most 12/64 per early outcome and 5 outcomes: the last keeps
        // at least 16/64.
        const double sixty_fourths =
            static_cast<double>(1 + (s * 5 + a * 3 + j) % 12);
        const double p = j + 1 == outcomes ? remaining : sixty_fourths / 64.0;
        remaining -= p;
        builder.add_outcome(
            static_cast<mdp::StateId>((s * 13 + a * 7 + j * 3 + 1) %
                                      num_states),
            p, 0.125 * static_cast<double>((s * 3 + a + j) % 9));
      }
    }
  }
  return builder.build();
}

/// The one-action model whose state s has exactly the outcome rows of
/// `policy[s]` in `model` — what a fixed-policy sweep must agree with.
mdp::Model one_action_model(const mdp::CompiledModel& model,
                            const std::vector<std::uint32_t>& policy) {
  mdp::ModelBuilder builder(model.num_states());
  for (mdp::StateId s = 0; s < model.num_states(); ++s) {
    const mdp::SaIndex sa = model.sa_index(s, policy[s]);
    builder.begin_action(s, 0);
    for (std::size_t k = model.outcome_begin(sa); k < model.outcome_end(sa);
         ++k) {
      builder.add_outcome(model.next()[k], model.prob()[k]);
    }
  }
  return builder.build();
}

/// rvi_eval_sweep over `policy`'s chain under every available ISA — full
/// range, and split at cuts off every lane multiple with per-chunk span
/// accumulators, as the chunked solver path issues them — against a scalar
/// greedy sweep of the one-action model the policy's rows form: bias and
/// span must agree bit-for-bit (== on doubles).
void expect_chain_sweep_equivalence(const mdp::CompiledModel& compiled,
                                    const std::vector<std::uint32_t>& policy) {
  const mdp::StateId n = compiled.num_states();
  const std::vector<double> bias = ramp_bias(n);
  const double* sa_rewards = compiled.expected_reward();
  const double tau = 0.875;
  const double ref = 0.03125;
  const double inf = std::numeric_limits<double>::infinity();

  const mdp::CompiledModel single =
      mdp::CompiledModel::compile(one_action_model(compiled, policy));
  std::vector<double> single_rewards(n);
  for (mdp::StateId s = 0; s < n; ++s) {
    single_rewards[s] = sa_rewards[compiled.sa_index(s, policy[s])];
  }
  std::vector<double> expected(n, -7.0);
  double expected_min = inf, expected_max = -inf;
  mdp::kernel::rvi_sweep(single, single_rewards.data(), tau, bias.data(), ref,
                         0, n, expected.data(), nullptr, &expected_min,
                         &expected_max, Isa::kScalar);

  const mdp::PolicyChain chain(
      compiled, policy, {sa_rewards, compiled.num_state_actions()});
  ASSERT_EQ(chain.num_states(), n);
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!mdp::kernel::isa_available(isa)) {
      continue;
    }
    const auto name = mdp::kernel::to_string(isa);
    std::vector<double> full(n, -8.0);
    double full_min = inf, full_max = -inf;
    mdp::kernel::rvi_eval_sweep(chain, tau, bias.data(), ref, 0, n,
                                full.data(), &full_min, &full_max, isa);
    for (mdp::StateId s = 0; s < n; ++s) {
      EXPECT_EQ(expected[s], full[s]) << name << " state=" << s;
    }
    EXPECT_EQ(expected_min, full_min) << name;
    EXPECT_EQ(expected_max, full_max) << name;

    for (const mdp::StateId cut : {mdp::StateId{1}, mdp::StateId{5},
                                   n / 3 + 1, n - 3}) {
      std::vector<double> split(n, -9.0);
      double min_a = inf, max_a = -inf, min_b = inf, max_b = -inf;
      mdp::kernel::rvi_eval_sweep(chain, tau, bias.data(), ref, 0, cut,
                                  split.data(), &min_a, &max_a, isa);
      mdp::kernel::rvi_eval_sweep(chain, tau, bias.data(), ref, cut, n,
                                  split.data(), &min_b, &max_b, isa);
      for (mdp::StateId s = 0; s < n; ++s) {
        EXPECT_EQ(expected[s], split[s])
            << name << " cut=" << cut << " state=" << s;
      }
      EXPECT_EQ(expected_min, std::min(min_a, min_b)) << name << " " << cut;
      EXPECT_EQ(expected_max, std::max(max_a, max_b)) << name << " " << cut;
    }
  }
}

TEST(Kernel, RviEvalSweepMatchesOneActionGreedySweep) {
  // 139 states: a multiple of neither 4, 8, 16 nor 32, so every vector body
  // ends in a scalar remainder. A mixed policy on the attack-model shape
  // (uniform two actions, three outcomes each).
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(dyadic_model(
      139, [](mdp::StateId) -> std::size_t { return 2; },
      [](mdp::StateId, std::size_t) -> std::size_t { return 3; }));
  ASSERT_TRUE(compiled.has_ell());
  std::vector<std::uint32_t> policy(compiled.num_states());
  for (mdp::StateId s = 0; s < compiled.num_states(); ++s) {
    policy[s] = (s * 7 / 3) % 2;
  }
  const mdp::PolicyChain chain(
      compiled, policy,
      {compiled.expected_reward(), compiled.num_state_actions()});
  EXPECT_EQ(chain.width(), compiled.ell_width());
  expect_chain_sweep_equivalence(compiled, policy);

  // The fixed action must matter: pinning differs from the greedy sweep.
  const mdp::StateId n = compiled.num_states();
  const std::vector<double> bias = ramp_bias(n);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> greedy(n), pinned(n);
  double gmin = inf, gmax = -inf, pmin = inf, pmax = -inf;
  mdp::kernel::rvi_sweep(compiled, compiled.expected_reward(), 0.875,
                         bias.data(), 0.0, 0, n, greedy.data(), nullptr,
                         &gmin, &gmax, Isa::kScalar);
  mdp::kernel::rvi_eval_sweep(chain, 0.875, bias.data(), 0.0, 0, n,
                              pinned.data(), &pmin, &pmax, Isa::kScalar);
  EXPECT_NE(greedy, pinned);
}

TEST(Kernel, RviEvalSweepOnNarrowChosenRows) {
  // Action 0 has one outcome and action 1 three, so the ELL width is 3
  // while a policy of all action 0 compacts to a width-1 chain.
  const mdp::StateId n = 141;
  mdp::ModelBuilder builder(n);
  for (mdp::StateId s = 0; s < n; ++s) {
    builder.begin_action(s, 0);
    builder.add_outcome((s * 5 + 1) % n, 1.0, 0.125 * (s % 7));
    builder.begin_action(s, 1);
    builder.add_outcome((s + 1) % n, 0.5, 1.0);
    builder.add_outcome((s * 3 + 2) % n, 0.375, 0.25);
    builder.add_outcome((s * 11 + 5) % n, 0.125, 0.5);
  }
  const mdp::CompiledModel compiled =
      mdp::CompiledModel::compile(builder.build());
  ASSERT_EQ(compiled.ell_width(), 3u);
  const std::span<const double> rewards{compiled.expected_reward(),
                                        compiled.num_state_actions()};
  const std::vector<std::uint32_t> narrow(n, 0);
  EXPECT_EQ(mdp::PolicyChain(compiled, narrow, rewards).width(), 1u);
  expect_chain_sweep_equivalence(compiled, narrow);
  std::vector<std::uint32_t> mixed(n);
  for (mdp::StateId s = 0; s < n; ++s) {
    mixed[s] = s % 3 == 0 ? 1 : 0;
  }
  EXPECT_EQ(mdp::PolicyChain(compiled, mixed, rewards).width(), 3u);
  expect_chain_sweep_equivalence(compiled, mixed);
}

TEST(Kernel, RviEvalSweepOnRaggedModel) {
  // Ragged menus (1..3 actions) and rows (1..5 outcomes): the chain width
  // of 5 runs the runtime-width vector body.
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(dyadic_model(
      101, [](mdp::StateId s) -> std::size_t { return 1 + s % 3; },
      [](mdp::StateId s, std::size_t a) -> std::size_t {
        return 1 + (s + a) % 5;
      }));
  ASSERT_TRUE(compiled.has_ell());
  std::vector<std::uint32_t> policy(compiled.num_states());
  for (mdp::StateId s = 0; s < compiled.num_states(); ++s) {
    policy[s] = static_cast<std::uint32_t>(s % compiled.num_actions(s));
  }
  EXPECT_EQ(mdp::PolicyChain(compiled, policy,
                             {compiled.expected_reward(),
                              compiled.num_state_actions()})
                .width(),
            5u);
  expect_chain_sweep_equivalence(compiled, policy);
}

TEST(Kernel, PolicyChainRejectsOutOfRangeActions) {
  const mdp::CompiledModel compiled =
      mdp::CompiledModel::compile(uniform_two_action_model(9));
  std::vector<std::uint32_t> policy(compiled.num_states(), 0);
  policy[4] = 2;
  const std::span<const double> rewards{compiled.expected_reward(),
                                        compiled.num_state_actions()};
  EXPECT_ANY_THROW(mdp::PolicyChain(compiled, policy, rewards));
  policy.pop_back();
  policy[4] = 0;
  EXPECT_ANY_THROW(mdp::PolicyChain(compiled, policy, rewards));
}

// ---- palette-coded AVX-512 bodies ----------------------------------------

/// Palettes of 1, 9 and 16 values (the 16th entry sits in the second
/// palette register). 136 states gives the one-value model a padding-free
/// mirror under both menus (272 and 408 rows, multiples of 8); 139 leaves
/// every vector body a scalar remainder.
struct PaletteCase {
  const char* name;
  mdp::StateId states;
  const Rows* rows;
  std::size_t values;
};
const PaletteCase kPaletteCases[] = {
    {"1 value", 136, &kOneValueRows, 1},
    {"9 values", 139, &kNineValueRows, 9},
    {"16 values", 139, &kSixteenValueRows, 16},
};

TEST(Kernel, CodedAvx512BodiesMatchScalarBitExact) {
  if (!mdp::kernel::isa_available(Isa::kAvx512)) {
    GTEST_SKIP() << "avx512 not available on this build/CPU";
  }
  for (const PaletteCase& c : kPaletteCases) {
    for (const std::size_t actions : {2u, 3u}) {
      SCOPED_TRACE(std::string(c.name) + ", " + std::to_string(actions) +
                   " actions");
      const mdp::CompiledModel compiled = mdp::CompiledModel::compile(
          palette_uniform_model(c.states, actions, *c.rows));
      ASSERT_TRUE(compiled.has_codes());
      ASSERT_EQ(compiled.palette_size(), c.values);
      ASSERT_EQ(compiled.uniform_actions(), actions);
      ASSERT_EQ(mdp::kernel::rvi_sweep_isa(compiled, Isa::kAvx512),
                Isa::kAvx512);
      expect_rvi_sweep_equivalence(compiled, Isa::kAvx512);

      std::vector<std::uint32_t> policy(compiled.num_states());
      for (mdp::StateId s = 0; s < compiled.num_states(); ++s) {
        policy[s] = static_cast<std::uint32_t>((s * 7 / 3) % actions);
      }
      const mdp::PolicyChain chain(
          compiled, policy,
          {compiled.expected_reward(), compiled.num_state_actions()});
      ASSERT_TRUE(chain.has_codes());
      ASSERT_EQ(mdp::kernel::rvi_sweep_isa(chain, Isa::kAvx512),
                Isa::kAvx512);
      expect_chain_sweep_equivalence(compiled, policy);
    }
  }
}

/// Every model the paper's tables solve takes the coded AVX-512 path: the
/// Table 2/3/4 grids at setting 1 (setting 2 shares their value counts),
/// one setting-2 cell per utility, and the Bitcoin selfish-mining
/// baseline. The greedy sweep vectorizes the uniform menus: two actions
/// (Tables 2 and 3) and three with Wait (Table 4). Only the baseline's
/// ragged menus keep the scalar greedy loop, and its policy chains run
/// avx512. Guards against a palette rule that silently leaves cells on
/// the AVX2 bodies: every result would still pass, only slower.
TEST(Kernel, PaperModelsTakeTheCodedPath) {
  struct Cell {
    std::string name;
    std::shared_ptr<const mdp::CompiledModel> model;
    std::size_t menu;  ///< uniform action count, 0 for ragged menus
  };
  std::vector<Cell> cells;
  const auto add_bu = [&](double alpha, int b, int g, bu::Setting setting,
                          bu::Utility utility) {
    const double rest = 1.0 - alpha;
    const double beta = rest * b / (b + g);
    const double gamma = rest - beta;
    if (alpha > beta || alpha > gamma) {
      return;  // outside the paper's alpha <= min(beta, gamma)
    }
    bu::AttackParams params;
    params.alpha = alpha;
    params.beta = beta;
    params.gamma = gamma;
    params.setting = setting;
    cells.push_back(
        {std::string("u") + std::to_string(static_cast<int>(utility) + 1) +
             " setting " +
             (setting == bu::Setting::kNoStickyGate ? "1" : "2") +
             " alpha=" + std::to_string(alpha) + " b:g=" +
             std::to_string(b) + ":" + std::to_string(g),
         bu::attack_model_compiled(params, utility),
         utility == bu::Utility::kOrphaning ? 3u : 2u});
  };
  const bu::Setting one = bu::Setting::kNoStickyGate;
  for (const auto& [b, g] : std::vector<std::pair<int, int>>{
           {3, 2}, {1, 1}, {2, 3}, {1, 2}, {1, 3}, {1, 4}}) {
    for (const double alpha : {0.10, 0.15, 0.20, 0.25}) {
      add_bu(alpha, b, g, one, bu::Utility::kRelativeRevenue);
    }
  }
  for (const auto& [b, g] : std::vector<std::pair<int, int>>{
           {4, 1}, {2, 1}, {1, 1}, {1, 2}, {1, 4}}) {
    for (const double alpha : {0.01, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25}) {
      add_bu(alpha, b, g, one, bu::Utility::kAbsoluteReward);
    }
  }
  for (const auto& [b, g] : std::vector<std::pair<int, int>>{
           {4, 1}, {3, 1}, {2, 1}, {3, 2}, {1, 1}, {2, 3}, {1, 2}, {1, 3},
           {1, 4}}) {
    add_bu(0.01, b, g, one, bu::Utility::kOrphaning);
  }
  add_bu(0.25, 1, 1, bu::Setting::kStickyGate, bu::Utility::kRelativeRevenue);
  add_bu(0.10, 1, 1, bu::Setting::kStickyGate, bu::Utility::kAbsoluteReward);
  add_bu(0.01, 1, 1, bu::Setting::kStickyGate, bu::Utility::kOrphaning);
  // The grids' 61 setting-1 cells (16 + 36 + 9 inside alpha <=
  // min(beta, gamma)) and the three setting-2 cells.
  ASSERT_EQ(cells.size(), 61u + 3u);
  for (const double tie : {0.5, 1.0}) {
    for (const double alpha : {0.10, 0.15, 0.20, 0.25}) {
      btc::SmParams params;
      params.alpha = alpha;
      params.gamma_tie = tie;
      cells.push_back(
          {"bitcoin-sm tie=" + std::to_string(tie) +
               " alpha=" + std::to_string(alpha),
           btc::sm_model_compiled(params, bu::Utility::kAbsoluteReward),
           0u});
    }
  }

  for (const Cell& cell : cells) {
    const mdp::CompiledModel& model = *cell.model;
    ASSERT_TRUE(model.has_codes()) << cell.name;
    EXPECT_EQ(model.uniform_actions(), cell.menu) << cell.name;
    EXPECT_EQ(mdp::kernel::rvi_sweep_isa(model, Isa::kAvx512),
              cell.menu == 0 ? Isa::kScalar : Isa::kAvx512)
        << cell.name;
    const std::vector<std::uint32_t> policy(model.num_states(), 0);
    const mdp::PolicyChain chain(
        model, policy, {model.expected_reward(), model.num_state_actions()});
    EXPECT_EQ(mdp::kernel::rvi_sweep_isa(chain, Isa::kAvx512), Isa::kAvx512)
        << cell.name;
  }
}

// ---- solver-level bit-identity -------------------------------------------

bu::AttackModel small_attack_model() {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.setting = bu::Setting::kNoStickyGate;
  params.ad = 4;  // small grid keeps the test fast
  return bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
}

TEST(Kernel, SolverJacobiBitIdenticalToScalarJacobi) {
  const Isa best = mdp::kernel::resolve(Request::kAuto);
  if (best == Isa::kScalar) {
    GTEST_SKIP() << "no vector ISA available";
  }
  const bu::AttackModel attack = small_attack_model();
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(attack.model);
  ASSERT_TRUE(compiled.has_ell());

  mdp::AverageRewardKnobs knobs;
  knobs.tolerance = 1e-9;

  // Reference: the scalar kernel, the sweep a host without AVX2 runs.
  mdp::GainResult scalar_jacobi;
  {
    const ScopedKernelRequest scoped(Request::kScalar);
    scalar_jacobi = mdp::maximize_average_reward(compiled, knobs);
  }

  // Every vector ISA runs the same Jacobi sweep and evaluates the scalar
  // expression tree lane-per-row, so the solve is bit-identical.
  for (const Request request : {Request::kAvx2, Request::kAvx512}) {
    if (!mdp::kernel::isa_available(static_cast<Isa>(request))) {
      continue;
    }
    const ScopedKernelRequest scoped(request);
    const std::string where(mdp::kernel::to_string(request));
    const mdp::GainResult vector_jacobi =
        mdp::maximize_average_reward(compiled, knobs);
    EXPECT_EQ(scalar_jacobi.gain, vector_jacobi.gain) << where;
    EXPECT_EQ(scalar_jacobi.iterations, vector_jacobi.iterations) << where;
    ASSERT_EQ(scalar_jacobi.bias.size(), vector_jacobi.bias.size());
    for (std::size_t s = 0; s < scalar_jacobi.bias.size(); ++s) {
      EXPECT_EQ(scalar_jacobi.bias[s], vector_jacobi.bias[s])
          << where << " state=" << s;
    }
    EXPECT_EQ(scalar_jacobi.policy, vector_jacobi.policy) << where;
  }
}

/// The setting-2 cell alpha = 0.25, beta = gamma = 0.375 (30,595 states):
/// its Dinkelbach loop runs two fixed-policy evaluation solves, so the
/// chain sweep decides part of the answer. Every vector ISA, at 1 and 4
/// batch threads, must reproduce the scalar request bit-for-bit: value,
/// policy, and sweep count.
TEST(Kernel, ChainEvaluationSolvesBitIdenticalAcrossIsasAndThreads) {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.375;
  params.gamma = 0.375;
  params.setting = bu::Setting::kStickyGate;
  const bu::AttackModel attack =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  const bu::AnalysisResult reference = [&] {
    const ScopedKernelRequest scoped(Request::kScalar);
    return bu::analyze(attack);
  }();
  ASSERT_TRUE(reference.converged());
  ASSERT_GT(reference.diagnostics.inner_solves,
            reference.diagnostics.outer_iterations)
      << "no fixed-policy evaluation ran";
  const std::vector<bu::AnalysisJob> jobs = {
      {params, bu::Utility::kRelativeRevenue}};
  for (const Request request : {Request::kAvx2, Request::kAvx512}) {
    if (!mdp::kernel::isa_available(static_cast<Isa>(request))) {
      continue;
    }
    const ScopedKernelRequest scoped(request);
    for (const int threads : {1, 4}) {
      mdp::BatchConfig batch;
      batch.threads = threads;
      const bu::AnalysisResult result = bu::analyze_batch(jobs, {}, batch)[0];
      const std::string where = std::string(mdp::kernel::to_string(request)) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(reference.utility_value, result.utility_value) << where;
      EXPECT_EQ(reference.policy, result.policy) << where;
      EXPECT_EQ(reference.diagnostics.inner_sweeps,
                result.diagnostics.inner_sweeps)
          << where;
    }
  }
}

// ---- the rvi.solve span names the sweep path that ran ---------------------

/// A uniform three-action model (the shape of Table 4's models with the
/// Wait action).
mdp::Model uniform_three_action_model(mdp::StateId num_states) {
  mdp::ModelBuilder builder(num_states);
  for (mdp::StateId s = 0; s < num_states; ++s) {
    for (std::uint32_t a = 0; a < 3; ++a) {
      builder.begin_action(s, static_cast<mdp::ActionLabel>(a));
      builder.add_outcome((s + a + 1) % num_states, 0.75, 0.25 * a);
      builder.add_outcome((s * 3 + a) % num_states, 0.25, 1.0);
    }
  }
  return builder.build();
}

/// Runs a short optimizing solve, or a fixed-policy evaluation of the
/// all-zero policy, with tracing on, and returns the `kernel` arg of the
/// solve's rvi.solve span.
std::string traced_kernel_arg(const mdp::CompiledModel& model,
                              bool evaluate) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  tracer.enable();
  mdp::AverageRewardKnobs knobs;
  knobs.max_sweeps = 5;
  if (evaluate) {
    mdp::Policy policy;
    policy.action.assign(model.num_states(), 0);
    (void)mdp::evaluate_policy_stream(
        model, policy,
        {model.expected_reward(), model.num_state_actions()}, knobs);
  } else {
    (void)mdp::maximize_average_reward(model, knobs);
  }
  tracer.disable();
  std::ostringstream out;
  tracer.write_jsonl(out);
  tracer.reset();
  const std::string trace = out.str();
  const std::string key = "\"kernel\":\"";
  const std::size_t at = trace.find(key);
  if (at == std::string::npos) {
    return "<no kernel arg>";
  }
  const std::size_t begin = at + key.size();
  return trace.substr(begin, trace.find('"', begin) - begin);
}

TEST(Kernel, SolveSpanNamesTheSweepPathThatRan) {
  // Two uniform actions with coded probabilities: both the greedy and the
  // chain sweep run the requested ISA.
  const mdp::CompiledModel two = mdp::CompiledModel::compile(
      palette_uniform_model(64, 2, kNineValueRows));
  ASSERT_TRUE(two.has_codes());
  // Its random-probability twin carries no codes: an avx512 request runs
  // the AVX2 bodies for both sweeps.
  const mdp::CompiledModel random_two =
      mdp::CompiledModel::compile(uniform_two_action_model(64));
  ASSERT_FALSE(random_two.has_codes());
  // Three coded actions: both sweeps run the requested ISA, as for two.
  // Ragged menus: the greedy sweep takes the scalar loop; the chain of a
  // fixed policy has one row per state and does not. The ragged model's
  // random probabilities carry no codes.
  const mdp::CompiledModel three =
      mdp::CompiledModel::compile(uniform_three_action_model(64));
  ASSERT_EQ(three.uniform_actions(), 3u);
  ASSERT_TRUE(three.has_codes());
  const mdp::CompiledModel ragged =
      mdp::CompiledModel::compile(ragged_model(53));
  ASSERT_TRUE(ragged.has_ell());
  ASSERT_FALSE(ragged.has_codes());
  // No ELL mirror (one row wider than kMaxEllWidth): the greedy sweep
  // takes the scalar loop. A fixed policy's chain is built from the CSR
  // columns, so the chain sweep runs vectorized all the same; the model
  // carries no codes, so its chain has none either.
  const mdp::StateId n = 40;
  mdp::ModelBuilder builder(n);
  for (mdp::StateId s = 0; s < n; ++s) {
    builder.begin_action(s, 0);
    const std::size_t width =
        s == 0 ? mdp::CompiledModel::kMaxEllWidth + 4 : 2;
    for (std::size_t j = 0; j < width; ++j) {
      builder.add_outcome(static_cast<mdp::StateId>((s + j + 1) % n),
                          1.0 / static_cast<double>(width));
    }
  }
  const mdp::CompiledModel no_ell =
      mdp::CompiledModel::compile(builder.build());
  ASSERT_FALSE(no_ell.has_ell());

  for (const Request request :
       {Request::kScalar, Request::kAvx2, Request::kAvx512}) {
    if (!mdp::kernel::isa_available(static_cast<Isa>(request))) {
      continue;
    }
    const ScopedKernelRequest scoped(request);
    const std::string asked(mdp::kernel::to_string(request));
    const std::string uncoded = request == Request::kAvx512 ? "avx2" : asked;
    SCOPED_TRACE(asked);
    EXPECT_EQ(traced_kernel_arg(two, false), asked);
    EXPECT_EQ(traced_kernel_arg(two, true), asked);
    EXPECT_EQ(traced_kernel_arg(random_two, false), uncoded);
    EXPECT_EQ(traced_kernel_arg(random_two, true), uncoded);
    EXPECT_EQ(traced_kernel_arg(three, false), asked);
    EXPECT_EQ(traced_kernel_arg(three, true), asked);
    EXPECT_EQ(traced_kernel_arg(ragged, false), "scalar");
    EXPECT_EQ(traced_kernel_arg(ragged, true), uncoded);
    EXPECT_EQ(traced_kernel_arg(no_ell, false), "scalar");
    EXPECT_EQ(traced_kernel_arg(no_ell, true), uncoded);
  }
}

}  // namespace
