// Equivalence of the CompiledModel SoA kernel layer with the Model (AoS)
// representation it compiles: structural fidelity, the ELL mirror's
// palette codes (every code decodes to its double, the 16-value rule, the
// copies a PolicyChain takes, the resident bytes), bit-identical solver
// and rollout results on a template instance and on compile(), the
// library's scalar RVI sweep
// bit-identical to an in-test Jacobi replica over the AoS Model, and
// ModelTemplate::instantiate bit-identical to compile() of the enumerated
// Model over the paper's cells.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "btc/selfish_mining.hpp"
#include "bu/attack_model.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/kernel.hpp"
#include "mdp/model.hpp"
#include "mdp/model_cache.hpp"
#include "mdp/model_template.hpp"
#include "mdp/policy_iteration.hpp"
#include "mdp/ratio.hpp"
#include "mdp/rollout.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;

bu::AttackModel setting1_model() {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.setting = bu::Setting::kNoStickyGate;
  return bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
}

bu::AttackModel setting2_model() {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.setting = bu::Setting::kStickyGate;
  params.gate_period = 12;  // paper-shaped but small enough for a fast test
  return bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
}

btc::SmModel btc_model() {
  btc::SmParams params;
  params.alpha = 0.30;
  params.gamma_tie = 0.5;
  params.max_len = 12;
  return btc::build_sm_model(params, bu::Utility::kRelativeRevenue);
}

// ---- structural fidelity --------------------------------------------------

TEST(CompiledModel, MirrorsModelStructure) {
  const bu::AttackModel attack = setting1_model();
  const mdp::Model& model = attack.model;
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);

  ASSERT_EQ(compiled.num_states(), model.num_states());
  ASSERT_EQ(compiled.num_state_actions(), model.num_state_actions());

  std::size_t total_outcomes = 0;
  for (mdp::StateId s = 0; s < model.num_states(); ++s) {
    ASSERT_EQ(compiled.num_actions(s), model.num_actions(s));
    for (std::size_t a = 0; a < model.num_actions(s); ++a) {
      const mdp::SaIndex sa = model.sa_index(s, a);
      ASSERT_EQ(compiled.sa_index(s, a), sa);
      EXPECT_EQ(compiled.action_label(sa), model.action_label(s, a));
      EXPECT_EQ(compiled.expected_reward(sa), model.expected_reward(sa));
      EXPECT_EQ(compiled.expected_weight(sa), model.expected_weight(sa));
      const std::span<const mdp::Outcome> outcomes = model.outcomes(sa);
      ASSERT_EQ(compiled.outcome_end(sa) - compiled.outcome_begin(sa),
                outcomes.size());
      std::size_t k = compiled.outcome_begin(sa);
      for (const mdp::Outcome& outcome : outcomes) {
        EXPECT_EQ(compiled.next()[k], outcome.next);
        EXPECT_EQ(compiled.prob()[k], outcome.probability);
        EXPECT_EQ(compiled.reward()[k], outcome.reward);
        EXPECT_EQ(compiled.weight()[k], outcome.weight);
        ++k;
      }
      total_outcomes += outcomes.size();
    }
  }
  EXPECT_EQ(compiled.num_outcomes(), total_outcomes);
}

// ---- palette codes of the ELL mirror ---------------------------------------

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Checks the code column against the double column it replaces: every
/// cell, padding included, decodes to its double's exact bits; the palette
/// holds distinct values, then +0.0 in every unused slot; padding cells
/// carry zero_code(), which decodes to +0.0.
void expect_codes_decode(const mdp::CompiledModel& model) {
  ASSERT_TRUE(model.has_codes());
  const std::size_t size = model.palette_size();
  ASSERT_GE(size, 1u);
  ASSERT_LE(size, mdp::CompiledModel::kPaletteSize);
  const double* palette = model.palette();
  for (std::size_t a = 0; a < mdp::CompiledModel::kPaletteSize; ++a) {
    for (std::size_t b = a + 1; b < size; ++b) {
      EXPECT_NE(bits(palette[a]), bits(palette[b])) << a << " vs " << b;
    }
    if (a >= size) {
      EXPECT_EQ(bits(palette[a]), bits(0.0)) << "unused slot " << a;
    }
  }
  EXPECT_EQ(bits(palette[model.zero_code()]), bits(0.0));
  const std::size_t stride = model.ell_stride();
  for (std::size_t j = 0; j < model.ell_width(); ++j) {
    for (std::size_t sa = 0; sa < stride; ++sa) {
      const std::size_t cell = j * stride + sa;
      const std::uint8_t code = model.ell_code()[cell];
      ASSERT_LT(code, size);
      ASSERT_EQ(bits(palette[code]), bits(model.ell_prob()[cell]))
          << "j=" << j << " sa=" << sa;
      const bool padding =
          sa >= model.num_state_actions() ||
          model.outcome_begin(sa) + j >= model.outcome_end(sa);
      if (padding) {
        ASSERT_EQ(code, model.zero_code()) << "j=" << j << " sa=" << sa;
      }
    }
  }
}

TEST(CompiledModel, CodesDecodeToTheDoubleColumn) {
  expect_codes_decode(mdp::CompiledModel::compile(setting1_model().model));
  expect_codes_decode(mdp::CompiledModel::compile(setting2_model().model));
  expect_codes_decode(mdp::CompiledModel::compile(btc_model().model));
}

/// One action per state; state s takes row s % rows.size(). Dyadic rows
/// that sum to exactly 1 keep their bits through the builder.
mdp::Model rows_model(mdp::StateId num_states,
                      const std::vector<std::vector<double>>& rows) {
  mdp::ModelBuilder builder(num_states);
  for (mdp::StateId s = 0; s < num_states; ++s) {
    builder.begin_action(s, 0);
    const std::vector<double>& row = rows[s % rows.size()];
    for (std::size_t j = 0; j < row.size(); ++j) {
      builder.add_outcome(static_cast<mdp::StateId>((s + j + 1) % num_states),
                          row[j]);
    }
  }
  return builder.build();
}

/// `pairs` rows {k/64, 1 - k/64} for k = 1..pairs: 2 * pairs distinct
/// values.
std::vector<std::vector<double>> pair_rows(int pairs) {
  std::vector<std::vector<double>> rows;
  for (int k = 1; k <= pairs; ++k) {
    rows.push_back({k / 64.0, 1.0 - k / 64.0});
  }
  return rows;
}

TEST(CompiledModel, PaletteHoldsAtMostSixteenValuesCountingZero) {
  // 14 values and no padding (16 rows, a multiple of 8): coded, and +0.0
  // takes the first unused slot.
  const mdp::CompiledModel fourteen =
      mdp::CompiledModel::compile(rows_model(16, pair_rows(7)));
  ASSERT_TRUE(fourteen.has_codes());
  EXPECT_EQ(fourteen.palette_size(), 14u);
  EXPECT_EQ(fourteen.zero_code(), 14u);
  expect_codes_decode(fourteen);

  // 15 values plus the 0.0 that pads the width-1 row: a full palette.
  std::vector<std::vector<double>> rows = pair_rows(7);
  rows.push_back({1.0});
  const mdp::CompiledModel sixteen =
      mdp::CompiledModel::compile(rows_model(16, rows));
  ASSERT_TRUE(sixteen.has_codes());
  EXPECT_EQ(sixteen.palette_size(), 16u);
  expect_codes_decode(sixteen);

  // 16 nonzero values without padding: +0.0 would need a 17th slot.
  const mdp::CompiledModel full =
      mdp::CompiledModel::compile(rows_model(16, pair_rows(8)));
  ASSERT_TRUE(full.has_ell());
  EXPECT_FALSE(full.has_codes());
  EXPECT_EQ(full.palette_size(), 0u);

  // 16 values plus the stride padding's 0.0 (17 rows): 17 values.
  const mdp::CompiledModel seventeen =
      mdp::CompiledModel::compile(rows_model(17, pair_rows(8)));
  ASSERT_TRUE(seventeen.has_ell());
  EXPECT_FALSE(seventeen.has_codes());
}

TEST(CompiledModel, PolicyChainCopiesTheMirrorCodes) {
  const bu::AttackModel attack = setting1_model();
  const mdp::CompiledModel model = mdp::CompiledModel::compile(attack.model);
  ASSERT_TRUE(model.has_codes());
  const mdp::StateId n = model.num_states();
  std::vector<std::uint32_t> policy(n);
  for (mdp::StateId s = 0; s < n; ++s) {
    policy[s] = (s * 7 / 3) % model.num_actions(s);
  }
  const mdp::PolicyChain chain(
      model, policy, {model.expected_reward(), model.num_state_actions()});
  ASSERT_TRUE(chain.has_codes());
  for (std::size_t k = 0; k < mdp::CompiledModel::kPaletteSize; ++k) {
    EXPECT_EQ(bits(chain.palette()[k]), bits(model.palette()[k]));
  }
  for (std::size_t j = 0; j < chain.width(); ++j) {
    for (std::size_t s = 0; s < chain.stride(); ++s) {
      const std::size_t cell = j * chain.stride() + s;
      const std::uint8_t code = chain.code()[cell];
      if (s < n) {
        const mdp::SaIndex sa =
            model.sa_index(static_cast<mdp::StateId>(s), policy[s]);
        ASSERT_EQ(code, model.ell_code()[j * model.ell_stride() + sa])
            << "j=" << j << " s=" << s;
      } else {
        ASSERT_EQ(code, model.zero_code()) << "j=" << j << " s=" << s;
      }
      ASSERT_EQ(bits(chain.palette()[code]), bits(chain.prob()[cell]));
    }
  }

  // A mirror without codes gives chains without codes.
  const mdp::CompiledModel uncoded =
      mdp::CompiledModel::compile(rows_model(16, pair_rows(8)));
  const std::vector<std::uint32_t> zeros(uncoded.num_states(), 0);
  EXPECT_FALSE(mdp::PolicyChain(uncoded, zeros,
                                {uncoded.expected_reward(),
                                 uncoded.num_state_actions()})
                   .has_codes());
}

TEST(CompiledModel, BytesResidentCountsCodesAndPalette) {
  // Two models of one shape (16 one-action states, two outcomes each): the
  // dyadic one is coded, the other takes 32 values and is not.
  const mdp::CompiledModel coded =
      mdp::CompiledModel::compile(rows_model(16, pair_rows(7)));
  std::vector<std::vector<double>> thirds;
  for (int k = 1; k <= 16; ++k) {
    thirds.push_back({1.0 / (3.0 * k), 1.0 - 1.0 / (3.0 * k)});
  }
  const mdp::CompiledModel uncoded =
      mdp::CompiledModel::compile(rows_model(16, thirds));
  ASSERT_TRUE(coded.has_codes());
  ASSERT_FALSE(uncoded.has_codes());
  ASSERT_EQ(coded.ell_width() * coded.ell_stride(),
            uncoded.ell_width() * uncoded.ell_stride());
  EXPECT_EQ(coded.bytes_resident() - uncoded.bytes_resident(),
            util::aligned_footprint(coded.ell_width() * coded.ell_stride()) +
                util::aligned_footprint(mdp::CompiledModel::kPaletteSize *
                                        sizeof(double)));
}

// ---- raw sweep equivalence vs an AoS reference replica --------------------

// One greedy Jacobi RVI sweep written against the AoS Model, independent of
// the library's sweep code: every state is backed up against the previous
// sweep's bias `bias_in` into `bias_out`, and the reference residual (state
// 0's backup minus its bias) is taken first and subtracted from every
// update. Ties keep the lower action.
void reference_aos_sweep(const mdp::Model& model,
                         std::span<const double> rewards, double tau,
                         const std::vector<double>& bias_in,
                         std::vector<double>& bias_out,
                         std::vector<std::uint32_t>& policy) {
  const auto backup = [&](mdp::StateId s, std::uint32_t* best_action) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < model.num_actions(s); ++a) {
      const mdp::SaIndex sa = model.sa_index(s, a);
      double expected_next = 0.0;
      for (const mdp::Outcome& outcome : model.outcomes(sa)) {
        expected_next += outcome.probability * bias_in[outcome.next];
      }
      const double q =
          tau * (rewards[sa] + expected_next) + (1.0 - tau) * bias_in[s];
      if (q > best) {
        best = q;
        *best_action = static_cast<std::uint32_t>(a);
      }
    }
    return best;
  };
  std::uint32_t unused = 0;
  const double ref = backup(0, &unused) - bias_in[0];
  for (mdp::StateId s = 0; s < model.num_states(); ++s) {
    bias_out[s] = backup(s, &policy[s]) - ref;
  }
}

// The library's scalar sweep over the compiled model, driven the way
// rvi_core drives it: the reference from a one-state pass, then every
// state.
void library_scalar_sweep(const mdp::CompiledModel& model,
                          std::span<const double> rewards, double tau,
                          const std::vector<double>& bias_in,
                          std::vector<double>& bias_out,
                          std::vector<std::uint32_t>& policy) {
  using mdp::kernel::Isa;
  double span_min = std::numeric_limits<double>::infinity();
  double span_max = -std::numeric_limits<double>::infinity();
  double backup0 = 0.0;
  mdp::kernel::rvi_sweep(model, rewards.data(), tau, bias_in.data(), 0.0, 0,
                         1, &backup0, policy.data(), &span_min, &span_max,
                         Isa::kScalar);
  mdp::kernel::rvi_sweep(model, rewards.data(), tau, bias_in.data(),
                         backup0 - bias_in[0], 0, model.num_states(),
                         bias_out.data(), policy.data(), &span_min,
                         &span_max, Isa::kScalar);
}

void expect_sweeps_bit_identical(const mdp::Model& model) {
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);
  const std::span<const double> rewards{compiled.expected_reward(),
                                        compiled.num_state_actions()};
  constexpr double kTau = 0.999;
  const std::size_t n = model.num_states();
  std::vector<double> aos_bias(n, 0.0);
  std::vector<double> aos_next(n, 0.0);
  std::vector<double> lib_bias(n, 0.0);
  std::vector<double> lib_next(n, 0.0);
  std::vector<std::uint32_t> aos_policy(n, 0);
  std::vector<std::uint32_t> lib_policy(n, 0);
  for (int sweep = 0; sweep < 25; ++sweep) {
    reference_aos_sweep(model, rewards, kTau, aos_bias, aos_next, aos_policy);
    library_scalar_sweep(compiled, rewards, kTau, lib_bias, lib_next,
                         lib_policy);
    aos_bias.swap(aos_next);
    lib_bias.swap(lib_next);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(aos_bias[i], lib_bias[i]) << "bias diverged at state " << i;
    ASSERT_EQ(aos_policy[i], lib_policy[i])
        << "policy diverged at state " << i;
  }
}

TEST(CompiledModel, SweepBitIdenticalToAosReferenceSetting1) {
  expect_sweeps_bit_identical(setting1_model().model);
}

TEST(CompiledModel, SweepBitIdenticalToAosReferenceSetting2) {
  expect_sweeps_bit_identical(setting2_model().model);
}

TEST(CompiledModel, SweepBitIdenticalToAosReferenceBtc) {
  expect_sweeps_bit_identical(btc_model().model);
}

// ---- full-solver equivalence: template instance vs compile() -------------
//
// bu::analyze and btc::analyze_sm solve on the cell's template instance
// (AttackModel::compiled, SmModel::compiled); the RVI solvers and the
// rollout must return the same bits there as on CompiledModel::compile of
// the enumerated Model.

void expect_gain_results_identical(const mdp::GainResult& a,
                                   const mdp::GainResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.bias.size(), b.bias.size());
  for (std::size_t i = 0; i < a.bias.size(); ++i) {
    ASSERT_EQ(a.bias[i], b.bias[i]) << "bias differs at state " << i;
  }
  EXPECT_EQ(a.gain, b.gain);
  EXPECT_EQ(a.policy.action, b.policy.action);
}

void expect_gain_equivalence(const mdp::CompiledModel& instance,
                             const mdp::Model& model) {
  mdp::AverageRewardKnobs config;
  config.tolerance = 1e-8;
  expect_gain_results_identical(
      mdp::maximize_average_reward(instance, config),
      mdp::maximize_average_reward(mdp::CompiledModel::compile(model),
                                   config));
}

TEST(CompiledModel, GainResultBitIdenticalSetting1) {
  const bu::AttackModel attack = setting1_model();
  expect_gain_equivalence(*attack.compiled, attack.model);
}

TEST(CompiledModel, GainResultBitIdenticalSetting2) {
  const bu::AttackModel attack = setting2_model();
  expect_gain_equivalence(*attack.compiled, attack.model);
}

TEST(CompiledModel, GainResultBitIdenticalBtc) {
  const btc::SmModel sm = btc_model();
  expect_gain_equivalence(*sm.compiled, sm.model);
}

void expect_ratio_equivalence(const mdp::CompiledModel& instance,
                              const mdp::Model& model) {
  mdp::RatioKnobs config;
  config.tolerance = 1e-6;
  config.upper_bound = 1.0;
  const mdp::RatioResult via_instance = mdp::maximize_ratio(instance, config);
  const mdp::RatioResult via_compile =
      mdp::maximize_ratio(mdp::CompiledModel::compile(model), config);
  EXPECT_EQ(via_instance.status, via_compile.status);
  EXPECT_EQ(via_instance.iterations, via_compile.iterations);
  EXPECT_EQ(via_instance.ratio, via_compile.ratio);
  EXPECT_EQ(via_instance.reward_rate, via_compile.reward_rate);
  EXPECT_EQ(via_instance.weight_rate, via_compile.weight_rate);
  EXPECT_EQ(via_instance.used_bisection, via_compile.used_bisection);
  EXPECT_EQ(via_instance.policy.action, via_compile.policy.action);
}

TEST(CompiledModel, RatioResultBitIdenticalSetting1) {
  const bu::AttackModel attack = setting1_model();
  expect_ratio_equivalence(*attack.compiled, attack.model);
}

TEST(CompiledModel, RatioResultBitIdenticalSetting2) {
  const bu::AttackModel attack = setting2_model();
  expect_ratio_equivalence(*attack.compiled, attack.model);
}

TEST(CompiledModel, RatioResultBitIdenticalBtc) {
  const btc::SmModel sm = btc_model();
  expect_ratio_equivalence(*sm.compiled, sm.model);
}

/// Exact ratio policy iteration on the model's two streams.
mdp::PolicyIterationResult exact_ratio(const mdp::CompiledModel& model) {
  const std::size_t actions = model.num_state_actions();
  return mdp::policy_iteration(model, {model.expected_reward(), actions},
                               {model.expected_weight(), actions});
}

TEST(CompiledModel, PolicyIterationBitIdentical) {
  // The cached template's instantiation and compile() of the enumerated
  // Model give the exact solver the same bits.
  const bu::AttackModel attack = setting1_model();
  const mdp::PolicyIterationResult pa = exact_ratio(*attack.compiled);
  const mdp::PolicyIterationResult pb =
      exact_ratio(mdp::CompiledModel::compile(attack.model));
  EXPECT_EQ(pa.status, pb.status);
  EXPECT_EQ(pa.iterations, pb.iterations);
  EXPECT_EQ(pa.value, pb.value);
  EXPECT_EQ(pa.bias, pb.bias);
  EXPECT_EQ(pa.policy.action, pb.policy.action);
}

TEST(CompiledModel, RolloutDrawsIdenticalTrajectory) {
  const bu::AttackModel attack = setting1_model();
  const mdp::CompiledModel compiled =
      mdp::CompiledModel::compile(attack.model);
  const mdp::GainResult gain = mdp::maximize_average_reward(compiled);

  Rng rng_a(99);
  Rng rng_b(99);
  const mdp::ModelRolloutResult via_instance = mdp::rollout_model(
      *attack.compiled, gain.policy, /*start=*/0, 20'000, rng_a);
  const mdp::ModelRolloutResult via_compile =
      mdp::rollout_model(compiled, gain.policy, /*start=*/0, 20'000, rng_b);
  EXPECT_EQ(via_instance.steps, via_compile.steps);
  EXPECT_EQ(via_instance.reward_total, via_compile.reward_total);
  EXPECT_EQ(via_instance.weight_total, via_compile.weight_total);
}

// ---- the compilation carried by the analysis layers -----------------------

TEST(CompiledModel, AttackModelCarriesCachedCompilation) {
  const bu::AttackModel attack = setting1_model();
  ASSERT_NE(attack.compiled, nullptr);
  EXPECT_EQ(attack.compiled->num_states(), attack.model.num_states());
  // A rebuild of the same rule set shares the cached template's index
  // columns; the value columns are the rebuild's own.
  const bu::AttackModel again = setting1_model();
  EXPECT_EQ(&attack.compiled->index(), &again.compiled->index());
  EXPECT_NE(attack.compiled->prob(), again.compiled->prob());
}

TEST(CompiledModel, SmModelCarriesCachedCompilation) {
  const btc::SmModel sm = btc_model();
  ASSERT_NE(sm.compiled, nullptr);
  EXPECT_EQ(sm.compiled->num_states(), sm.model.num_states());
}

// ---- template instantiation against compile() of the enumerated Model -----

/// Compares `count` elements of two columns by their bytes, naming the
/// first difference.
template <typename T>
void expect_same_bytes(const char* column, const T* got, const T* want,
                       std::size_t count) {
  if (count == 0 || std::memcmp(got, want, count * sizeof(T)) == 0) {
    return;
  }
  std::size_t i = 0;
  while (std::memcmp(got + i, want + i, sizeof(T)) == 0) {
    ++i;
  }
  ADD_FAILURE() << column << " differs first at element " << i << " of "
                << count;
}

/// Every column of `got` (instantiated from a template) equals `want`
/// (CompiledModel::compile of the cell's Model) bit for bit: the index and
/// value columns, the ELL mirror, and its codes and palette.
void expect_bit_identical(const mdp::CompiledModel& got,
                          const mdp::CompiledModel& want) {
  ASSERT_EQ(got.num_states(), want.num_states());
  ASSERT_EQ(got.num_state_actions(), want.num_state_actions());
  ASSERT_EQ(got.num_outcomes(), want.num_outcomes());
  const mdp::IndexColumns& gi = got.index();
  const mdp::IndexColumns& wi = want.index();
  expect_same_bytes("state_begin", gi.state_begin.data(),
                    wi.state_begin.data(), wi.state_begin.size());
  expect_same_bytes("action_labels", gi.action_labels.data(),
                    wi.action_labels.data(), wi.action_labels.size());
  expect_same_bytes("outcome_begin", gi.outcome_begin.data(),
                    wi.outcome_begin.data(), wi.outcome_begin.size());
  const std::size_t outcomes = want.num_outcomes();
  const std::size_t actions = want.num_state_actions();
  expect_same_bytes("next", got.next(), want.next(), outcomes);
  expect_same_bytes("prob", got.prob(), want.prob(), outcomes);
  expect_same_bytes("reward", got.reward(), want.reward(), outcomes);
  expect_same_bytes("weight", got.weight(), want.weight(), outcomes);
  expect_same_bytes("expected_reward", got.expected_reward(),
                    want.expected_reward(), actions);
  expect_same_bytes("expected_weight", got.expected_weight(),
                    want.expected_weight(), actions);
  EXPECT_EQ(got.uniform_actions(), want.uniform_actions());
  ASSERT_EQ(got.has_ell(), want.has_ell());
  ASSERT_EQ(got.ell_width(), want.ell_width());
  ASSERT_EQ(got.ell_stride(), want.ell_stride());
  const std::size_t cells = want.ell_width() * want.ell_stride();
  expect_same_bytes("ell_prob", got.ell_prob(), want.ell_prob(), cells);
  expect_same_bytes("ell_next", got.ell_next(), want.ell_next(), cells);
  ASSERT_EQ(got.has_codes(), want.has_codes());
  EXPECT_EQ(got.palette_size(), want.palette_size());
  EXPECT_EQ(got.zero_code(), want.zero_code());
  if (want.has_codes()) {
    expect_same_bytes("palette", got.palette(), want.palette(),
                      mdp::CompiledModel::kPaletteSize);
    expect_same_bytes("ell_code", got.ell_code(), want.ell_code(), cells);
  }
}

void expect_cell_bit_identical(const bu::AttackParams& params,
                               bu::Utility utility) {
  SCOPED_TRACE(bu::attack_model_cache_key(params, utility));
  const bu::AttackModel attack = bu::build_attack_model(params, utility);
  expect_bit_identical(*attack.compiled,
                       mdp::CompiledModel::compile(attack.model));
}

void expect_cell_bit_identical(const btc::SmParams& params,
                               bu::Utility utility) {
  SCOPED_TRACE(btc::sm_model_cache_key(params, utility));
  const btc::SmModel sm = btc::build_sm_model(params, utility);
  expect_bit_identical(*sm.compiled, mdp::CompiledModel::compile(sm.model));
}

/// The bu cells of one table block, as bench_table2/3/4 enumerate them:
/// beta and gamma split the rest in the ratio b:g, and cells outside
/// alpha <= min(beta, gamma) are skipped.
void expect_block_bit_identical(const std::vector<double>& alphas,
                                const std::vector<std::pair<int, int>>& ratios,
                                bu::Utility utility) {
  for (const bu::Setting setting :
       {bu::Setting::kNoStickyGate, bu::Setting::kStickyGate}) {
    for (const double alpha : alphas) {
      for (const auto& [b, g] : ratios) {
        bu::AttackParams params;
        params.alpha = alpha;
        params.beta = (1.0 - alpha) * b / (b + g);
        params.gamma = (1.0 - alpha) - params.beta;
        params.setting = setting;
        if (alpha <= params.beta && alpha <= params.gamma) {
          expect_cell_bit_identical(params, utility);
        }
      }
    }
  }
}

TEST(ModelTemplate, Table2CellsInstantiateBitIdentically) {
  expect_block_bit_identical({0.10, 0.15, 0.20, 0.25},
                             {{3, 2}, {1, 1}, {2, 3}, {1, 2}, {1, 3}, {1, 4}},
                             bu::Utility::kRelativeRevenue);
}

TEST(ModelTemplate, Table3CellsInstantiateBitIdentically) {
  expect_block_bit_identical({0.01, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25},
                             {{4, 1}, {2, 1}, {1, 1}, {1, 2}, {1, 4}},
                             bu::Utility::kAbsoluteReward);
}

TEST(ModelTemplate, Table4CellsInstantiateBitIdentically) {
  expect_block_bit_identical(
      {0.01},
      {{4, 1}, {3, 1}, {2, 1}, {3, 2}, {1, 1}, {2, 3}, {1, 2}, {1, 3}, {1, 4}},
      bu::Utility::kOrphaning);
}

TEST(ModelTemplate, ServiceShapedCellsInstantiateBitIdentically) {
  // Setting-1 u1 cells drawn like a bvcd job's: alpha in [0.01, 0.30] in
  // steps of 1e-4, Bob's share of the rest in [0.2, 0.8].
  Rng rng(20'171'128);
  int cells = 0;
  while (cells < 200) {
    const long alpha = 100 + static_cast<long>(rng.next_below(2901));
    const long beta =
        std::lround((10'000 - alpha) * (0.2 + 0.6 * rng.next_double()));
    if (alpha > beta || alpha > 10'000 - alpha - beta) {
      continue;
    }
    bu::AttackParams params;
    params.alpha = static_cast<double>(alpha) * 1e-4;
    params.beta = static_cast<double>(beta) * 1e-4;
    params.gamma = 1.0 - params.alpha - params.beta;
    expect_cell_bit_identical(params, bu::Utility::kRelativeRevenue);
    ++cells;
  }
}

TEST(ModelTemplate, BitcoinCellsInstantiateBitIdentically) {
  // Table 3's baseline cells, then every utility at the tie shares that
  // drop a tie branch (0 and 1) and one that keeps both.
  for (const double tie : {0.5, 1.0}) {
    for (const double alpha : {0.10, 0.15, 0.20, 0.25}) {
      btc::SmParams params;
      params.alpha = alpha;
      params.gamma_tie = tie;
      expect_cell_bit_identical(params, bu::Utility::kAbsoluteReward);
    }
  }
  for (const double tie : {0.0, 0.5, 1.0}) {
    for (const bu::Utility utility :
         {bu::Utility::kRelativeRevenue, bu::Utility::kAbsoluteReward,
          bu::Utility::kOrphaning}) {
      btc::SmParams params;
      params.alpha = 0.3;
      params.gamma_tie = tie;
      params.max_len = 12;
      expect_cell_bit_identical(params, utility);
    }
  }
}

TEST(ModelTemplate, RuleSetsShareOneTemplatePerKey) {
  // Cells that differ only in their shares hit one template; the tie shares
  // that drop a branch get templates of their own.
  mdp::ModelCache& cache = mdp::ModelCache::global();
  cache.clear();
  bu::AttackParams params;
  for (const double alpha : {0.1, 0.2, 0.3}) {
    params.alpha = alpha;
    params.beta = (1.0 - alpha) / 2;
    params.gamma = 1.0 - alpha - params.beta;
    (void)bu::attack_model_compiled(params, bu::Utility::kRelativeRevenue);
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  btc::SmParams sm;
  sm.max_len = 8;
  for (const double tie : {0.0, 0.25, 0.75, 1.0}) {
    sm.gamma_tie = tie;
    (void)btc::sm_model_compiled(sm, bu::Utility::kRelativeRevenue);
  }
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 3u);
  cache.clear();
}

TEST(ModelTemplate, RejectsANonPositiveSymbolItsBranchesUse) {
  mdp::TemplateBuilder builder(2, 3);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 0, 1.0, 1.0);
  builder.add_outcome(0, 1, 0.0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 0, 0.0, 1.0);
  builder.add_outcome(0, 1, 0.0, 1.0);
  const mdp::ModelTemplate rules = builder.build();
  EXPECT_EQ(rules.num_outcomes(), 3u);  // state 1's branches merged
  const std::vector<double> cell = {0.25, 0.75, 0.0};  // symbol 2 unused
  const mdp::CompiledModel model = rules.instantiate(cell);
  EXPECT_EQ(model.prob()[2], 1.0);
  EXPECT_THROW((void)rules.instantiate(std::vector<double>{0.0, 1.0, 0.5}),
               std::invalid_argument);
  EXPECT_THROW((void)rules.instantiate(std::vector<double>{0.25, 0.7, 0.0}),
               std::invalid_argument);  // state 0 sums to 0.95
  EXPECT_THROW((void)rules.instantiate(std::vector<double>{0.25, 0.75}),
               std::invalid_argument);
}

}  // namespace
