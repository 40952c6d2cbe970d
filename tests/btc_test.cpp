#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "btc/honest.hpp"
#include "btc/selfish_mining.hpp"
#include "mdp/model_cache.hpp"

namespace {

using namespace bvc::btc;
using bvc::bu::Utility;

// ----------------------------------------------------------------- honest --

TEST(Honest, RelativeRevenueIsAlpha) {
  EXPECT_DOUBLE_EQ(honest_relative_revenue(0.3), 0.3);
  EXPECT_DOUBLE_EQ(honest_absolute_reward(0.3), 0.3);
}

TEST(Honest, OrphaningBoundIsOne) {
  EXPECT_DOUBLE_EQ(bitcoin_orphaning_bound(), 1.0);
}

TEST(Honest, CatchUpProbability) {
  EXPECT_NEAR(catch_up_probability(0.25, 1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(catch_up_probability(0.25, 2), 1.0 / 9.0, 1e-12);
  EXPECT_DOUBLE_EQ(catch_up_probability(0.25, 0), 1.0);
  EXPECT_THROW((void)catch_up_probability(0.0, 1), std::invalid_argument);
}

// ------------------------------------------------------------- state space --

TEST(SmStateSpace, RoundTrips) {
  const SmStateSpace space(8);
  for (bvc::mdp::StateId id = 0; id < space.size(); ++id) {
    EXPECT_EQ(space.index(space.state(id)), id);
  }
}

TEST(SmStateSpace, RejectsOutOfRange) {
  const SmStateSpace space(8);
  EXPECT_THROW((void)space.index(SmState{9, 0, Fork::kIrrelevant}),
               std::invalid_argument);
}

// ------------------------------------------------------------------ model --

SmParams small_params(double alpha, double gamma_tie) {
  SmParams params;
  params.alpha = alpha;
  params.gamma_tie = gamma_tie;
  params.max_len = 12;  // keeps tests fast; accuracy ~1e-4 for alpha <= 1/3
  return params;
}

TEST(SmModel, BuildsWellFormedModel) {
  const SmModel model = build_sm_model(small_params(0.3, 0.5),
                                       Utility::kRelativeRevenue);
  EXPECT_EQ(model.model.num_states(), model.space.size());
  for (bvc::mdp::StateId id = 0; id < model.model.num_states(); ++id) {
    EXPECT_GE(model.model.num_actions(id), 1u);
  }
}

TEST(SmModel, ParamsValidated) {
  SmParams params = small_params(0.6, 0.5);
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params = small_params(0.3, 1.5);
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params = small_params(0.3, 0.5);
  params.max_len = 2;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

// ------------------------------------------------------ cache-first path --

TEST(SmCacheFirst, FillCompilesTheModelBuildSmModelBuilds) {
  bvc::mdp::ModelCache& cache = bvc::mdp::ModelCache::global();
  for (const Utility utility :
       {Utility::kRelativeRevenue, Utility::kAbsoluteReward,
        Utility::kOrphaning}) {
    SCOPED_TRACE(std::string(bvc::bu::to_string(utility)));
    const SmParams params = small_params(0.3, 0.5);
    cache.clear();
    const auto filled = sm_model_compiled(params, utility);
    const bvc::mdp::CompiledModel reference =
        bvc::mdp::CompiledModel::compile(build_sm_model(params, utility).model);
    ASSERT_EQ(filled->num_states(), reference.num_states());
    ASSERT_EQ(filled->num_state_actions(), reference.num_state_actions());
    ASSERT_EQ(filled->num_outcomes(), reference.num_outcomes());
    for (std::size_t i = 0; i < reference.num_outcomes(); ++i) {
      ASSERT_EQ(filled->next()[i], reference.next()[i]);
      ASSERT_EQ(filled->prob()[i], reference.prob()[i]);
      ASSERT_EQ(filled->reward()[i], reference.reward()[i]);
      ASSERT_EQ(filled->weight()[i], reference.weight()[i]);
    }
  }
}

TEST(SmCacheFirst, AnalyzeSmMatchesOnColdAndWarmCache) {
  bvc::mdp::ModelCache& cache = bvc::mdp::ModelCache::global();
  for (const Utility utility :
       {Utility::kRelativeRevenue, Utility::kAbsoluteReward,
        Utility::kOrphaning}) {
    SCOPED_TRACE(std::string(bvc::bu::to_string(utility)));
    const SmParams params = small_params(0.3, 0.5);
    // Reference: the entry build_sm_model's own builder loop filled.
    cache.clear();
    (void)build_sm_model(params, utility);
    const SmResult built = analyze_sm(params, utility);
    // Cache-first: a cold lookup fills through the fill, a warm one hits.
    cache.clear();
    const SmResult cold = analyze_sm(params, utility);
    const SmResult warm = analyze_sm(params, utility);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);

    ASSERT_TRUE(built.converged());
    for (const SmResult* result : {&cold, &warm}) {
      EXPECT_EQ(result->status, built.status);
      EXPECT_EQ(result->utility_value, built.utility_value);
      EXPECT_EQ(result->policy, built.policy);
      EXPECT_EQ(result->iterations, built.iterations);
      EXPECT_EQ(result->diagnostics.inner_sweeps,
                built.diagnostics.inner_sweeps);
    }
  }
}

TEST(SmCacheFirst, InvalidParamsThrowWithoutTouchingTheCache) {
  const bvc::mdp::ModelCache::Stats before =
      bvc::mdp::ModelCache::global().stats();
  EXPECT_THROW((void)analyze_sm(small_params(0.6, 0.5),
                                Utility::kRelativeRevenue),
               std::invalid_argument);
  const bvc::mdp::ModelCache::Stats after =
      bvc::mdp::ModelCache::global().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);
}

// ------------------------------------------------------ selfish mining u1 --

/// Eyal–Sirer closed-form selfish-mining revenue (their fixed strategy);
/// the *optimal* strategy must do at least as well.
double eyal_sirer_revenue(double a, double g) {
  const double num =
      a * (1 - a) * (1 - a) * (4.0 * a + g * (1 - 2 * a)) - a * a * a;
  const double den = 1.0 - a * (1.0 + (2.0 - a) * a);
  return num / den;
}

TEST(SelfishMining, HonestIsOptimalForSmallAlpha) {
  // Below the profitability threshold (~25% at gamma = 0), honest mining is
  // optimal: relative revenue equals alpha.
  const SmResult result = analyze_sm(small_params(0.2, 0.0),
                                     Utility::kRelativeRevenue, 1e-5);
  EXPECT_TRUE(result.converged());
  EXPECT_NEAR(result.utility_value, 0.2, 5e-4);
}

TEST(SelfishMining, BeatsHonestAboveThreshold) {
  const SmResult result = analyze_sm(small_params(0.35, 0.0),
                                     Utility::kRelativeRevenue, 1e-5);
  EXPECT_GT(result.utility_value, 0.35 + 1e-3);
}

TEST(SelfishMining, OptimalDominatesEyalSirer) {
  for (const double alpha : {0.3, 0.35, 0.4}) {
    for (const double gamma : {0.0, 0.5, 1.0}) {
      SmParams params = small_params(alpha, gamma);
      params.max_len = 48;  // high alpha needs deeper truncation
      const SmResult result =
          analyze_sm(params, Utility::kRelativeRevenue, 1e-4);
      const double es = eyal_sirer_revenue(alpha, gamma);
      EXPECT_GE(result.utility_value + 5e-4, std::max(alpha, es))
          << "alpha=" << alpha << " gamma=" << gamma;
    }
  }
}

TEST(SelfishMining, MatchesSapirshteinBenchmark) {
  // Sapirshtein et al. (FC'16) report 0.37077 optimal relative revenue for
  // alpha = 0.35, gamma = 0; our solver converges to the same value.
  SmParams params = small_params(0.35, 0.0);
  params.max_len = 48;
  const SmResult result =
      analyze_sm(params, Utility::kRelativeRevenue, 1e-5);
  EXPECT_NEAR(result.utility_value, 0.37077, 5e-4);
}

TEST(SelfishMining, FullTieWinMatchesClosedForm) {
  // With gamma = 1 the optimum approaches alpha / (1 - alpha).
  SmParams params = small_params(0.3, 1.0);
  params.max_len = 48;
  const SmResult result =
      analyze_sm(params, Utility::kRelativeRevenue, 1e-5);
  EXPECT_NEAR(result.utility_value, 0.3 / 0.7, 1e-3);
}

TEST(SelfishMining, RevenueIncreasesWithGamma) {
  const double low = analyze_sm(small_params(0.3, 0.0),
                                Utility::kRelativeRevenue, 1e-5)
                         .utility_value;
  const double high = analyze_sm(small_params(0.3, 1.0),
                                 Utility::kRelativeRevenue, 1e-5)
                          .utility_value;
  EXPECT_GT(high, low);
}

// ----------------------------------------------- double-spending baseline --

TEST(SmDoubleSpend, UnprofitableForSmallMiner) {
  // Table 3 bottom: with alpha = 10% and tie-win 50%, the best strategy is
  // essentially honest mining (0.1 per block).
  SmParams params = small_params(0.10, 0.5);
  const SmResult result = analyze_sm(params, Utility::kAbsoluteReward, 1e-5);
  EXPECT_NEAR(result.utility_value, 0.10, 5e-3);
}

TEST(SmDoubleSpend, ProfitableForLargeMiner) {
  // alpha = 25%, tie-win 100%: the paper reports 0.52.
  SmParams params = small_params(0.25, 1.0);
  params.max_len = 20;
  const SmResult result = analyze_sm(params, Utility::kAbsoluteReward, 1e-5);
  EXPECT_GT(result.utility_value, 0.4);
  EXPECT_LT(result.utility_value, 0.65);
}

TEST(SmDoubleSpend, RdsZeroReducesToSelfishMiningRates) {
  // With no double-spend value, absolute reward per block cannot exceed the
  // honest rate by much at small alpha... in fact per-step attacker revenue
  // is bounded by alpha (each step mines an attacker block w.p. alpha).
  SmParams params = small_params(0.2, 0.5);
  params.rds = 0.0;
  const SmResult result = analyze_sm(params, Utility::kAbsoluteReward, 1e-5);
  EXPECT_LE(result.utility_value, 0.2 + 1e-3);
}

TEST(SmDoubleSpend, MoreConfirmationsLowerRevenue) {
  SmParams loose = small_params(0.25, 1.0);
  loose.confirmations = 3;
  SmParams strict = small_params(0.25, 1.0);
  strict.confirmations = 6;
  const double easy =
      analyze_sm(loose, Utility::kAbsoluteReward, 1e-5).utility_value;
  const double hard =
      analyze_sm(strict, Utility::kAbsoluteReward, 1e-5).utility_value;
  EXPECT_GT(easy, hard);
}

// ------------------------------------------------------------ orphaning u3 --

TEST(SmOrphaning, BoundedByOneAtFullTieWin) {
  // The paper: in Bitcoin, max u3 <= 1 (one compliant block orphaned per
  // attacker block), approached with gamma = 1.
  const SmResult result = analyze_sm(small_params(0.3, 1.0),
                                     Utility::kOrphaning, 1e-5);
  EXPECT_LE(result.utility_value, 1.0 + 1e-3);
  EXPECT_GT(result.utility_value, 0.9);
}

TEST(SmOrphaning, WellBelowOneWithoutTieAdvantage) {
  const SmResult result = analyze_sm(small_params(0.3, 0.0),
                                     Utility::kOrphaning, 1e-5);
  EXPECT_LT(result.utility_value, 1.0);
}

}  // namespace

// ------------------------------------------------- Monte-Carlo validation --

#include "mdp/rollout.hpp"
#include "util/rng.hpp"

namespace {

TEST(SmRollout, OptimalPolicyRatioMatchesSolver) {
  SmParams params = small_params(0.3, 0.5);
  const SmResult solved = analyze_sm(params, Utility::kRelativeRevenue, 1e-5);
  const SmModel model = build_sm_model(params, Utility::kRelativeRevenue);
  bvc::Rng rng(31337);
  const bvc::mdp::ModelRolloutResult rollout = bvc::mdp::rollout_model(
      *model.compiled, solved.policy,
      model.space.index(SmState{0, 0, Fork::kIrrelevant}), 2'000'000, rng);
  EXPECT_NEAR(rollout.ratio(), solved.utility_value, 5e-3);
}

TEST(SmRollout, DoubleSpendRevenueMatchesSolver) {
  SmParams params = small_params(0.25, 1.0);
  const SmResult solved = analyze_sm(params, Utility::kAbsoluteReward, 1e-5);
  const SmModel model = build_sm_model(params, Utility::kAbsoluteReward);
  bvc::Rng rng(424242);
  const bvc::mdp::ModelRolloutResult rollout = bvc::mdp::rollout_model(
      *model.compiled, solved.policy,
      model.space.index(SmState{0, 0, Fork::kIrrelevant}), 2'000'000, rng);
  EXPECT_NEAR(rollout.ratio(), solved.utility_value, 0.02);
}

}  // namespace

// ------------------------------------------------------ policy inspection --

namespace {

TEST(SmPolicy, DescribeShowsActionGrids) {
  SmParams params = small_params(0.35, 0.0);
  const SmModel model = build_sm_model(params, Utility::kRelativeRevenue);
  const SmResult solved = analyze_sm(params, Utility::kRelativeRevenue, 1e-5);
  const std::string text = describe_sm_policy(model, solved.policy, 6);
  EXPECT_NE(text.find("fork = irrelevant"), std::string::npos);
  EXPECT_NE(text.find("fork = relevant"), std::string::npos);
  EXPECT_NE(text.find("fork = active"), std::string::npos);
  // The classic structure: at (a=1, h=0) a profitable selfish miner waits.
  EXPECT_EQ(policy_action(model, solved.policy,
                          SmState{1, 0, Fork::kIrrelevant}),
            SmAction::kWait);
  // Far behind, the attacker adopts.
  EXPECT_EQ(policy_action(model, solved.policy,
                          SmState{0, 5, Fork::kRelevant}),
            SmAction::kAdopt);
}

TEST(SmPolicy, HonestMinerNeverWithholdsLong) {
  // Below the threshold the optimal policy adopts quickly: at (a=1, h=1)
  // with gamma = 0 the attacker gains nothing from matching.
  SmParams params = small_params(0.15, 0.0);
  const SmModel model = build_sm_model(params, Utility::kRelativeRevenue);
  const SmResult solved = analyze_sm(params, Utility::kRelativeRevenue, 1e-5);
  EXPECT_EQ(policy_action(model, solved.policy,
                          SmState{0, 1, Fork::kRelevant}),
            SmAction::kAdopt);
}

}  // namespace
