// Policy iteration (exact dense evaluation) as an independent oracle for
// the relative-value-iteration solver, and on the paper's own models.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bu/attack_model.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/policy_iteration.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using namespace bvc::mdp;

Model random_model(Rng& rng, StateId states, std::size_t actions) {
  ModelBuilder builder(states);
  for (StateId s = 0; s < states; ++s) {
    for (std::size_t a = 0; a < actions; ++a) {
      builder.begin_action(s, static_cast<ActionLabel>(a));
      std::vector<double> probs(states);
      double total = 0.0;
      for (double& p : probs) {
        p = 0.05 + rng.next_double();
        total += p;
      }
      for (StateId next = 0; next < states; ++next) {
        builder.add_outcome(next, probs[next] / total,
                            rng.next_double() * 4.0 - 1.0, 0.0);
      }
    }
  }
  return builder.build();
}

TEST(PolicyIteration, ExactEvaluationOnTwoStateChain) {
  // Alternator with rewards 1 and 3: g = 2, h(1) - h(0) satisfies
  // g + h(0) = 1 + h(1) => h(1) = 1 (with h(0) = 0).
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0, 1.0, 0.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, 3.0, 0.0);
  const Model model = builder.build();
  std::vector<double> rewards = {1.0, 3.0};
  Policy policy;
  policy.action = {0, 0};
  const PolicyIterationResult result =
      evaluate_policy_exact(model, policy, rewards);
  EXPECT_NEAR(result.gain, 2.0, 1e-12);
  EXPECT_NEAR(result.bias[1], 1.0, 1e-12);
}

TEST(PolicyIteration, AgreesWithRviOnRandomModels) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const StateId states = 2 + static_cast<StateId>(rng.next_below(8));
    const std::size_t actions = 1 + rng.next_below(4);
    const Model model = random_model(rng, states, actions);

    const PolicyIterationResult exact = policy_iteration(model);
    const GainResult iterative = maximize_average_reward(model);
    EXPECT_TRUE(exact.converged());
    EXPECT_NEAR(exact.gain, iterative.gain, 1e-6) << "trial " << trial;
  }
}

TEST(PolicyIteration, ConvergesInFewImprovements) {
  Rng rng(7);
  const Model model = random_model(rng, 10, 3);
  const PolicyIterationResult result = policy_iteration(model);
  EXPECT_TRUE(result.converged());
  EXPECT_LE(result.improvements(), 20);
}

TEST(PolicyIteration, SolvesTheSetting1AttackModelExactly) {
  // The paper's setting-1 model at AD = 4 (86 states): policy iteration
  // must reproduce the RVI gain for the linearized u1 objective at the
  // optimal rho (where the gain is ~0).
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.375;
  params.gamma = 0.375;
  params.ad = 6;
  const bu::AttackModel attack =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);

  // Linearize at rho = the known optimum 0.2624: optimal gain ~ 0.
  const double rho = 0.2624;
  std::vector<double> rewards(attack.model.num_state_actions());
  for (SaIndex sa = 0; sa < rewards.size(); ++sa) {
    rewards[sa] = attack.model.expected_reward(sa) -
                  rho * attack.model.expected_weight(sa);
  }
  const PolicyIterationResult exact =
      policy_iteration(attack.model, rewards);
  const GainResult iterative =
      maximize_average_reward(attack.model, rewards);
  EXPECT_TRUE(exact.converged());
  EXPECT_NEAR(exact.gain, iterative.gain, 1e-6);
  EXPECT_NEAR(exact.gain, 0.0, 1e-3);
}

TEST(PolicyIteration, RejectsOversizedModels) {
  Rng rng(3);
  const Model model = random_model(rng, 6, 2);
  PolicyIterationKnobs config;
  config.max_states = 4;
  EXPECT_THROW((void)policy_iteration(model, config),
               std::invalid_argument);
}

TEST(PolicyIteration, RejectsBadPolicy) {
  Rng rng(4);
  const Model model = random_model(rng, 4, 2);
  Policy short_policy;
  short_policy.action = {0, 0};
  std::vector<double> rewards(model.num_state_actions(), 1.0);
  EXPECT_THROW(
      (void)evaluate_policy_exact(model, short_policy, rewards),
      std::invalid_argument);
}

}  // namespace
