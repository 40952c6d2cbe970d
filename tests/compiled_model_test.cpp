// Equivalence of the CompiledModel SoA kernel layer with the Model (AoS)
// representation it compiles: structural fidelity, the ELL mirror's
// palette codes (every code decodes to its double, the 16-value rule, the
// copies a PolicyChain takes, a disk round trip, the resident bytes),
// bit-identical solver results through both overload families, and the
// library's scalar RVI sweep bit-identical to an in-test Jacobi replica
// over the AoS Model.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "btc/selfish_mining.hpp"
#include "bu/attack_model.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/discounted.hpp"
#include "mdp/kernel.hpp"
#include "mdp/model.hpp"
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

TEST(CompiledModel, DiskRoundTripRebuildsCodes) {
  const bu::AttackModel attack = setting1_model();
  const btc::SmModel sm = btc_model();
  for (const mdp::Model* source : {&attack.model, &sm.model}) {
    const auto original = mdp::CompiledModel::compile_shared(*source);
    std::stringstream buffer;
    original->serialize(buffer);
    const auto restored = mdp::CompiledModel::deserialize(buffer);
    ASSERT_NE(restored, nullptr);
    ASSERT_TRUE(restored->has_codes());
    EXPECT_EQ(restored->palette_size(), original->palette_size());
    EXPECT_EQ(restored->zero_code(), original->zero_code());
    EXPECT_EQ(restored->bytes_resident(), original->bytes_resident());
    for (std::size_t k = 0; k < mdp::CompiledModel::kPaletteSize; ++k) {
      EXPECT_EQ(bits(restored->palette()[k]), bits(original->palette()[k]));
    }
    ASSERT_EQ(restored->ell_width(), original->ell_width());
    ASSERT_EQ(restored->ell_stride(), original->ell_stride());
    const std::size_t cells = original->ell_width() * original->ell_stride();
    for (std::size_t i = 0; i < cells; ++i) {
      ASSERT_EQ(restored->ell_code()[i], original->ell_code()[i]) << i;
    }
  }
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

// ---- full-solver equivalence: Model vs CompiledModel overloads ------------

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

void expect_gain_equivalence(const mdp::Model& model) {
  mdp::AverageRewardKnobs config;
  config.tolerance = 1e-8;
  const mdp::GainResult via_model = mdp::maximize_average_reward(model, config);
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);
  const mdp::GainResult via_compiled =
      mdp::maximize_average_reward(compiled, config);
  expect_gain_results_identical(via_model, via_compiled);
}

TEST(CompiledModel, GainResultBitIdenticalSetting1) {
  expect_gain_equivalence(setting1_model().model);
}

TEST(CompiledModel, GainResultBitIdenticalSetting2) {
  expect_gain_equivalence(setting2_model().model);
}

TEST(CompiledModel, GainResultBitIdenticalBtc) {
  expect_gain_equivalence(btc_model().model);
}

void expect_ratio_equivalence(const mdp::Model& model, double upper_bound) {
  mdp::RatioKnobs config;
  config.tolerance = 1e-6;
  config.upper_bound = upper_bound;
  const mdp::RatioResult via_model = mdp::maximize_ratio(model, config);
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);
  const mdp::RatioResult via_compiled =
      mdp::maximize_ratio(compiled, config);
  EXPECT_EQ(via_model.status, via_compiled.status);
  EXPECT_EQ(via_model.iterations, via_compiled.iterations);
  EXPECT_EQ(via_model.ratio, via_compiled.ratio);
  EXPECT_EQ(via_model.reward_rate, via_compiled.reward_rate);
  EXPECT_EQ(via_model.weight_rate, via_compiled.weight_rate);
  EXPECT_EQ(via_model.used_bisection, via_compiled.used_bisection);
  EXPECT_EQ(via_model.policy.action, via_compiled.policy.action);
}

TEST(CompiledModel, RatioResultBitIdenticalSetting1) {
  expect_ratio_equivalence(setting1_model().model, 1.0);
}

TEST(CompiledModel, RatioResultBitIdenticalSetting2) {
  expect_ratio_equivalence(setting2_model().model, 1.0);
}

TEST(CompiledModel, RatioResultBitIdenticalBtc) {
  expect_ratio_equivalence(btc_model().model, 1.0);
}

TEST(CompiledModel, DiscountedAndPolicyIterationBitIdentical) {
  const mdp::Model& model = setting1_model().model;
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);

  mdp::DiscountedKnobs discounted_config;
  discounted_config.discount = 0.95;
  const mdp::DiscountedResult da =
      mdp::solve_discounted(model, discounted_config);
  const mdp::DiscountedResult db =
      mdp::solve_discounted(compiled, discounted_config);
  EXPECT_EQ(da.status, db.status);
  EXPECT_EQ(da.iterations, db.iterations);
  ASSERT_EQ(da.value.size(), db.value.size());
  for (std::size_t i = 0; i < da.value.size(); ++i) {
    ASSERT_EQ(da.value[i], db.value[i]);
  }
  EXPECT_EQ(da.policy.action, db.policy.action);

  const mdp::PolicyIterationKnobs howard;
  const mdp::PolicyIterationResult pa = mdp::policy_iteration(model, howard);
  const mdp::PolicyIterationResult pb =
      mdp::policy_iteration(compiled, howard);
  EXPECT_EQ(pa.status, pb.status);
  EXPECT_EQ(pa.iterations, pb.iterations);
  EXPECT_EQ(pa.gain, pb.gain);
  EXPECT_EQ(pa.policy.action, pb.policy.action);
}

TEST(CompiledModel, RolloutDrawsIdenticalTrajectory) {
  const mdp::Model& model = setting1_model().model;
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);
  const mdp::GainResult gain =
      mdp::maximize_average_reward(model, mdp::AverageRewardKnobs{});

  Rng rng_a(99);
  Rng rng_b(99);
  const mdp::ModelRolloutResult via_model =
      mdp::rollout_model(model, gain.policy, /*start=*/0, 20'000, rng_a);
  const mdp::ModelRolloutResult via_compiled =
      mdp::rollout_model(compiled, gain.policy, /*start=*/0, 20'000, rng_b);
  EXPECT_EQ(via_model.steps, via_compiled.steps);
  EXPECT_EQ(via_model.reward_total, via_compiled.reward_total);
  EXPECT_EQ(via_model.weight_total, via_compiled.weight_total);
}

// ---- the cached compilation carried by the analysis layers ----------------

TEST(CompiledModel, AttackModelCarriesCachedCompilation) {
  const bu::AttackModel attack = setting1_model();
  ASSERT_NE(attack.compiled, nullptr);
  EXPECT_EQ(attack.compiled->num_states(), attack.model.num_states());
  // A rebuild of the same cell shares the same immutable compilation.
  const bu::AttackModel again = setting1_model();
  EXPECT_EQ(attack.compiled.get(), again.compiled.get());
}

TEST(CompiledModel, SmModelCarriesCachedCompilation) {
  const btc::SmModel sm = btc_model();
  ASSERT_NE(sm.compiled, nullptr);
  EXPECT_EQ(sm.compiled->num_states(), sm.model.num_states());
}

}  // namespace
