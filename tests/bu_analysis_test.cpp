// Solver-level tests of the attack analysis: honest baselines, paper
// regression cells, policy structure, and Monte-Carlo rollout agreement.
// Heavyweight sweeps over the full parameter grid live in the benches; here
// we pin a representative subset (and use short gate periods for setting 2)
// to keep the suite fast.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "bu/attack_analysis.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/model_cache.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc::bu;
using bvc::Rng;

AttackParams make_params(double alpha, double beta, double gamma,
                         Setting setting = Setting::kNoStickyGate,
                         unsigned ad = 6) {
  AttackParams params;
  params.alpha = alpha;
  params.beta = beta;
  params.gamma = gamma;
  params.setting = setting;
  params.ad = ad;
  return params;
}

// --------------------------------------------------- incentive baselines ---

TEST(Analysis, RelativeRevenueNeverBelowAlpha) {
  // "Always OnChain1" earns exactly alpha, so the optimum is >= alpha.
  for (const double alpha : {0.05, 0.15, 0.25}) {
    const double rest = 1.0 - alpha;
    const AnalysisResult result = analyze(
        make_params(alpha, rest / 2, rest / 2), Utility::kRelativeRevenue);
    EXPECT_GE(result.utility_value, alpha - 1e-4);
  }
}

TEST(Analysis, NoUnfairRevenueWhenBobDominates) {
  // Sect. 4.2: Alice gains only when alpha + gamma > beta; otherwise the
  // optimal strategy is honest and u1 == alpha.
  const AnalysisResult result = analyze(make_params(0.10, 0.60, 0.30),
                                        Utility::kRelativeRevenue);
  EXPECT_NEAR(result.utility_value, 0.10, 2e-4);
  EXPECT_FALSE(result.attack_beats_honest);
}

TEST(Analysis, UnfairRevenueWhenAliceAndCarolOutweighBob) {
  // Table 2, alpha = 25%, beta:gamma = 1:1 -> 26.24%.
  const AnalysisResult result = analyze(make_params(0.25, 0.375, 0.375),
                                        Utility::kRelativeRevenue);
  EXPECT_NEAR(result.utility_value, 0.2624, 3e-4);
  EXPECT_TRUE(result.attack_beats_honest);
}

TEST(Analysis, Table2RegressionSetting1) {
  // Two more Table 2 cells, setting 1.
  EXPECT_NEAR(max_relative_revenue(0.25, 0.30, 0.45,
                                   Setting::kNoStickyGate),
              0.2739, 3e-4);
  // alpha = 20%, beta:gamma = 1:3 -> 21.58% (verified 0.2158 by our solver).
  EXPECT_NEAR(max_relative_revenue(0.20, 0.20, 0.60,
                                   Setting::kNoStickyGate),
              0.2158, 3e-4);
}

TEST(Analysis, BaseStatePolicyAttacksOnlyWhenProfitable) {
  // When the attack pays, the optimal base action is OnChain2 (fork).
  const AttackModel model = build_attack_model(
      make_params(0.25, 0.375, 0.375), Utility::kRelativeRevenue);
  const AnalysisResult result = analyze(model);
  EXPECT_EQ(policy_action(model, result.policy, AttackState{}),
            Action::kOnChain2);

  const AttackModel honest_model = build_attack_model(
      make_params(0.10, 0.60, 0.30), Utility::kRelativeRevenue);
  const AnalysisResult honest = analyze(honest_model);
  EXPECT_EQ(policy_action(honest_model, honest.policy, AttackState{}),
            Action::kOnChain1);
}

// ------------------------------------------------------- double-spending ---

TEST(Analysis, DoubleSpendProfitableEvenForOnePercentMiner) {
  // Analytical Result 2: in BU even a 1% miner profits from
  // double-spending — u2 is more than triple the honest 0.01. (The paper's
  // Table 3 reports 0.042 for this cell; our reproduction of the
  // double-spend accounting yields 0.0341 — see EXPERIMENTS.md for the
  // convention analysis. The qualitative result is identical.)
  const AnalysisResult result = analyze(make_params(0.01, 0.495, 0.495),
                                        Utility::kAbsoluteReward);
  EXPECT_NEAR(result.utility_value, 0.0341, 1e-3);
  EXPECT_GT(result.utility_value, 3.0 * 0.01);
  EXPECT_TRUE(result.attack_beats_honest);
}

TEST(Analysis, Table3RegressionSetting1) {
  // Our regenerated values (paper: 0.40 and 0.090; same shape, see
  // EXPERIMENTS.md).
  EXPECT_NEAR(max_absolute_reward(0.10, 0.45, 0.45,
                                  Setting::kNoStickyGate),
              0.3123, 2e-3);
  EXPECT_NEAR(max_absolute_reward(0.05, 0.80 * 0.95, 0.20 * 0.95,
                                  Setting::kNoStickyGate),
              0.0627, 2e-3);
}

TEST(Analysis, DoubleSpendValueScalesWithRds) {
  AttackParams cheap = make_params(0.05, 0.475, 0.475);
  cheap.rds = 1.0;
  AttackParams rich = make_params(0.05, 0.475, 0.475);
  rich.rds = 50.0;
  const double small_v =
      analyze(cheap, Utility::kAbsoluteReward).utility_value;
  const double large_v =
      analyze(rich, Utility::kAbsoluteReward).utility_value;
  EXPECT_GT(large_v, small_v);
  EXPECT_GE(small_v, 0.05 - 1e-4);  // never worse than honest
}

TEST(Analysis, NoDoubleSpendRewardMeansRevenueCapNearAlpha) {
  // With rds = 0, u2 reduces to Alice's locked blocks per network block,
  // which cannot exceed alpha by much... in fact per-step it is <= alpha.
  AttackParams params = make_params(0.15, 0.425, 0.425);
  params.rds = 0.0;
  const AnalysisResult result = analyze(params, Utility::kAbsoluteReward);
  EXPECT_NEAR(result.utility_value, 0.15, 1e-3);
}

// ------------------------------------------------------------- orphaning ---

TEST(Analysis, Table4RegressionSetting1) {
  // alpha = 1%: 2:3 -> 1.77 (the paper's headline 1.77 figure), 1:1 -> 1.76,
  // 4:1 -> 0.61.
  EXPECT_NEAR(max_orphaning(0.01, 0.99 * 0.4, 0.99 * 0.6,
                            Setting::kNoStickyGate),
              1.77, 0.01);
  EXPECT_NEAR(max_orphaning(0.01, 0.495, 0.495, Setting::kNoStickyGate),
              1.76, 0.01);
  EXPECT_NEAR(max_orphaning(0.01, 0.99 * 0.8, 0.99 * 0.2,
                            Setting::kNoStickyGate),
              0.61, 0.01);
}

TEST(Analysis, OrphaningEffectivenessIndependentOfAlpha) {
  // Sect. 4.4: "the results are almost identical for all alpha values".
  const double tiny = max_orphaning(0.01, 0.495, 0.495,
                                    Setting::kNoStickyGate);
  const double small_v = max_orphaning(0.05, 0.475, 0.475,
                                       Setting::kNoStickyGate);
  EXPECT_NEAR(tiny, small_v, 0.02);
}

TEST(Analysis, OrphaningExceedsBitcoinBound) {
  // Analytical Result 3: u3 > 1 in BU vs <= 1 in Bitcoin.
  const double u3 = max_orphaning(0.01, 0.495, 0.495,
                                  Setting::kNoStickyGate);
  EXPECT_GT(u3, 1.0);
}

// ----------------------------------------------- setting 2 (short gate) ----

TEST(Analysis, Setting2WithShortGateRunsEndToEnd) {
  AttackParams params = make_params(0.25, 0.45, 0.30, Setting::kStickyGate);
  params.gate_period = 12;  // short gate: same mechanics, fast solve
  const AnalysisResult result = analyze(params, Utility::kRelativeRevenue);
  EXPECT_TRUE(result.converged());
  // The 3:2 split profits only via phase 2 (Table 2: setting 1 gives exactly
  // alpha, setting 2 slightly more); with a shorter gate the phase-2 benefit
  // shrinks but must not go below alpha.
  EXPECT_GE(result.utility_value, 0.25 - 1e-4);
}

TEST(Analysis, GateCountdownVariantGapShrinksWithThePeriod) {
  // The Rizun-exact countdown (phase 2 starts at period - (AD-1), decrements
  // by blocks locked) and the paper-text encoding (starts at the full
  // period, decrements by l1) differ by O(AD / period): noticeable at a
  // 24-block gate, negligible at the release's 144.
  const auto gap = [](unsigned period) {
    AttackParams locked =
        make_params(0.25, 0.30, 0.45, Setting::kStickyGate);
    locked.gate_period = period;
    AttackParams paper = locked;
    paper.countdown = GateCountdown::kPaperText;
    const double a =
        analyze(locked, Utility::kRelativeRevenue).utility_value;
    const double b =
        analyze(paper, Utility::kRelativeRevenue).utility_value;
    return std::abs(a - b);
  };
  const double short_gap = gap(24);
  const double long_gap = gap(144);
  EXPECT_LT(long_gap, short_gap);
  EXPECT_LT(long_gap, 2e-3);
}

// ---------------------------------------------------- cache-first path ----

/// Everything a solve decides, compared bit for bit.
void expect_same_solve(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.utility_value, b.utility_value);
  EXPECT_EQ(a.reward_rate, b.reward_rate);
  EXPECT_EQ(a.weight_rate, b.weight_rate);
  EXPECT_EQ(a.honest_baseline, b.honest_baseline);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.diagnostics.inner_sweeps, b.diagnostics.inner_sweeps);
}

TEST(CacheFirstAnalysis, MatchesAnalyzeOfTheBuiltModel) {
  bvc::mdp::ModelCache& cache = bvc::mdp::ModelCache::global();
  for (const Setting setting :
       {Setting::kNoStickyGate, Setting::kStickyGate}) {
    for (const Utility utility :
         {Utility::kRelativeRevenue, Utility::kAbsoluteReward,
          Utility::kOrphaning}) {
      SCOPED_TRACE(std::string(to_string(utility)) +
                   (setting == Setting::kStickyGate ? " setting 2"
                                                    : " setting 1"));
      AttackParams params = make_params(0.25, 0.30, 0.45, setting);
      params.gate_period = 8;  // short gate: a small setting-2 model

      cache.clear();
      const AnalysisResult cold = analyze(params, utility);  // fills
      const AnalysisResult warm = analyze(params, utility);  // hits
      EXPECT_EQ(cache.stats().misses, 1u);
      EXPECT_EQ(cache.stats().hits, 1u);

      // build_attack_model builds the cell without a template.
      cache.clear();
      const AnalysisResult built = analyze(build_attack_model(params, utility));
      EXPECT_EQ(cache.stats().misses + cache.stats().hits, 0u);

      ASSERT_TRUE(built.converged());
      expect_same_solve(cold, built);
      expect_same_solve(warm, built);
    }
  }
}

TEST(CacheFirstAnalysis, InvalidParamsThrowWithoutTouchingTheCache) {
  const bvc::mdp::ModelCache::Stats before =
      bvc::mdp::ModelCache::global().stats();
  EXPECT_THROW((void)analyze(make_params(0.6, 0.2, 0.2),
                             Utility::kRelativeRevenue),
               std::invalid_argument);
  EXPECT_THROW((void)attack_model_compiled(make_params(0.6, 0.2, 0.2),
                                           Utility::kOrphaning),
               std::invalid_argument);
  const bvc::mdp::ModelCache::Stats after =
      bvc::mdp::ModelCache::global().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);
}

// ----------------------------------------------------------- rollouts ------

TEST(Rollout, AgreesWithAnalyticUtility) {
  const AttackModel model = build_attack_model(
      make_params(0.25, 0.375, 0.375), Utility::kRelativeRevenue);
  const AnalysisResult result = analyze(model);
  Rng rng(4242);
  const RolloutResult rollout =
      rollout_policy(model, result.policy, 2'000'000, rng);
  EXPECT_NEAR(rollout.utility_estimate, result.utility_value, 5e-3);
}

TEST(Rollout, HonestPolicyEarnsAlpha) {
  const AttackModel model = build_attack_model(
      make_params(0.2, 0.4, 0.4), Utility::kRelativeRevenue);
  // Construct the all-OnChain1 policy manually.
  bvc::mdp::Policy honest;
  honest.action.assign(model.space.size(), 0);  // local action 0 = OnChain1
  Rng rng(7);
  const RolloutResult rollout = rollout_policy(model, honest, 500'000, rng);
  EXPECT_NEAR(rollout.utility_estimate, 0.2, 5e-3);
  EXPECT_DOUBLE_EQ(rollout.totals.others_orphaned, 0.0);
}

TEST(Rollout, OrphaningPolicyRollout) {
  const AttackModel model = build_attack_model(
      make_params(0.05, 0.38, 0.57), Utility::kOrphaning);
  const AnalysisResult result = analyze(model);
  Rng rng(99);
  const RolloutResult rollout =
      rollout_policy(model, result.policy, 2'000'000, rng);
  EXPECT_NEAR(rollout.utility_estimate, result.utility_value, 0.05);
  EXPECT_GT(rollout.totals.others_orphaned, 0.0);
}

TEST(DescribePolicy, ListsBaseAndForkStates) {
  const AttackModel model = build_attack_model(
      make_params(0.25, 0.375, 0.375, Setting::kNoStickyGate, 3),
      Utility::kRelativeRevenue);
  const AnalysisResult result = analyze(model);
  const std::string text = describe_policy(model, result.policy);
  EXPECT_NE(text.find("base"), std::string::npos);
  EXPECT_NE(text.find("(0,1,0,1|r=0)"), std::string::npos);
}

}  // namespace
