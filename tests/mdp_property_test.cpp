// Property tests for the MDP solvers: on randomly generated small models,
// the optimal gain / ratio returned by the iterative solvers, and to 1e-9
// by the exact policy iteration, must match a brute-force enumeration of
// every deterministic stationary policy (whose long-run rates we compute
// independently by power iteration on the policy chain).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "mdp/average_reward.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/policy_iteration.hpp"
#include "mdp/ratio.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using namespace bvc::mdp;

/// A random model where every action can reach every state with positive
/// probability — guarantees irreducibility (hence unichain) under every
/// policy.
CompiledModel random_model(Rng& rng, StateId states, std::size_t actions) {
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
                            rng.next_double() * 4.0 - 1.0,  // reward
                            0.1 + rng.next_double());       // weight > 0
      }
    }
  }
  return builder.build();
}

/// Long-run (reward_rate, weight_rate) of a fixed policy via power
/// iteration on its stationary distribution — an implementation completely
/// independent of the RVI solver.
std::pair<double, double> policy_rates_by_power_iteration(
    const CompiledModel& model, const Policy& policy) {
  const StateId n = model.num_states();
  std::vector<double> dist(n, 1.0 / n);
  std::vector<double> next(n);
  for (int iter = 0; iter < 20000; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (StateId s = 0; s < n; ++s) {
      const SaIndex sa = model.sa_index(s, policy.action[s]);
      for (std::size_t k = model.outcome_begin(sa); k < model.outcome_end(sa);
           ++k) {
        next[model.next()[k]] += dist[s] * model.prob()[k];
      }
    }
    double delta = 0.0;
    for (StateId s = 0; s < n; ++s) {
      delta = std::max(delta, std::abs(next[s] - dist[s]));
    }
    dist.swap(next);
    if (delta < 1e-14) {
      break;
    }
  }
  double reward = 0.0;
  double weight = 0.0;
  for (StateId s = 0; s < n; ++s) {
    const SaIndex sa = model.sa_index(s, policy.action[s]);
    reward += dist[s] * model.expected_reward(sa);
    weight += dist[s] * model.expected_weight(sa);
  }
  return {reward, weight};
}

/// All deterministic policies of a model with `actions` actions per state.
std::vector<Policy> all_policies(StateId states, std::size_t actions) {
  std::vector<Policy> result;
  std::vector<std::uint32_t> current(states, 0);
  for (;;) {
    result.push_back(Policy{current});
    StateId s = 0;
    for (; s < states; ++s) {
      if (++current[s] < actions) {
        break;
      }
      current[s] = 0;
    }
    if (s == states) {
      return result;
    }
  }
}

class SolverVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverVsBruteForce, AverageRewardMatchesEnumeration) {
  Rng rng(GetParam());
  const StateId states = 2 + static_cast<StateId>(rng.next_below(3));
  const std::size_t actions = 2 + rng.next_below(2);
  const CompiledModel model = random_model(rng, states, actions);

  double best_gain = -1e100;
  for (const Policy& policy : all_policies(states, actions)) {
    best_gain = std::max(
        best_gain, policy_rates_by_power_iteration(model, policy).first);
  }

  const GainResult solved = maximize_average_reward(model);
  EXPECT_TRUE(solved.converged());
  EXPECT_NEAR(solved.gain, best_gain, 1e-6);

  const std::vector<double> unit(model.num_state_actions(), 1.0);
  const PolicyIterationResult exact = policy_iteration(
      model, {model.expected_reward(), model.num_state_actions()}, unit);
  EXPECT_TRUE(exact.converged());
  EXPECT_NEAR(exact.value, best_gain, 1e-9);
}

TEST_P(SolverVsBruteForce, RatioMatchesEnumeration) {
  Rng rng(GetParam() ^ 0x5EED);
  const StateId states = 2 + static_cast<StateId>(rng.next_below(3));
  const std::size_t actions = 2 + rng.next_below(2);
  const CompiledModel model = random_model(rng, states, actions);

  double best_ratio = -1e100;
  for (const Policy& policy : all_policies(states, actions)) {
    const auto [reward, weight] =
        policy_rates_by_power_iteration(model, policy);
    best_ratio = std::max(best_ratio, reward / weight);
  }

  RatioKnobs config;
  config.lower_bound = -100.0;
  config.upper_bound = 100.0;
  const RatioResult solved = maximize_ratio(model, config);
  EXPECT_TRUE(solved.converged());
  EXPECT_NEAR(solved.ratio, best_ratio, 1e-5);

  const std::size_t pairs = model.num_state_actions();
  const PolicyIterationResult exact =
      policy_iteration(model, {model.expected_reward(), pairs},
                       {model.expected_weight(), pairs});
  EXPECT_TRUE(exact.converged());
  EXPECT_NEAR(exact.value, best_ratio, 1e-9);
}

TEST_P(SolverVsBruteForce, PolicyEvaluationMatchesPowerIteration) {
  Rng rng(GetParam() ^ 0xABCD);
  const StateId states = 2 + static_cast<StateId>(rng.next_below(4));
  const std::size_t actions = 1 + rng.next_below(3);
  const CompiledModel model = random_model(rng, states, actions);

  Policy policy;
  policy.action.resize(states);
  for (StateId s = 0; s < states; ++s) {
    policy.action[s] =
        static_cast<std::uint32_t>(rng.next_below(actions));
  }
  const auto [reward, weight] =
      policy_rates_by_power_iteration(model, policy);
  const PolicyGains gains = evaluate_policy_average(model, policy);
  EXPECT_NEAR(gains.reward_rate, reward, 1e-6);
  EXPECT_NEAR(gains.weight_rate, weight, 1e-6);
}

/// Expected discounted reward of a fixed policy from every state: solves
/// (I - discount * P) v = r by Gaussian elimination with partial pivoting.
std::vector<double> discounted_value(const CompiledModel& model,
                                     const Policy& policy, double discount) {
  const StateId n = model.num_states();
  std::vector<std::vector<double>> a(n, std::vector<double>(n + 1, 0.0));
  for (StateId s = 0; s < n; ++s) {
    const SaIndex sa = model.sa_index(s, policy.action[s]);
    a[s][s] = 1.0;
    for (std::size_t k = model.outcome_begin(sa); k < model.outcome_end(sa);
         ++k) {
      a[s][model.next()[k]] -= discount * model.prob()[k];
    }
    a[s][n] = model.expected_reward(sa);
  }
  for (StateId col = 0; col < n; ++col) {
    StateId pivot = col;
    for (StateId row = col + 1; row < n; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) {
        pivot = row;
      }
    }
    std::swap(a[col], a[pivot]);
    for (StateId row = 0; row < n; ++row) {
      if (row != col) {
        const double factor = a[row][col] / a[col][col];
        for (StateId k = col; k <= n; ++k) {
          a[row][k] -= factor * a[col][k];
        }
      }
    }
  }
  std::vector<double> value(n);
  for (StateId s = 0; s < n; ++s) {
    value[s] = a[s][n] / a[s][s];
  }
  return value;
}

// The Abelian limit: (1 - discount) times the best discounted value, found
// by enumerating every policy, approaches the optimal gain as the discount
// tends to 1 — an oracle for the RVI gain independent of every solver.
TEST_P(SolverVsBruteForce, DiscountedLimitApproachesGain) {
  Rng rng(GetParam() ^ 0xD15C);
  const CompiledModel model = random_model(rng, 3, 2);
  constexpr double kDiscount = 0.99995;
  double best = -1e100;
  for (const Policy& policy : all_policies(3, 2)) {
    best = std::max(best, discounted_value(model, policy, kDiscount)[0]);
  }
  const GainResult average = maximize_average_reward(model);
  EXPECT_NEAR((1.0 - kDiscount) * best, average.gain, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SolverVsBruteForce,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{21}));

}  // namespace
