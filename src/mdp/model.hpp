// The vocabulary of a sparse finite Markov decision process.
//
// A model has, for every state, a set of actions; for every (state,
// action), a sparse list of outcomes (successor, probability, and two reward
// streams). Two streams are carried because every utility function in Zhang &
// Preneel's analysis is a ratio of two accumulated quantities:
//
//   u1 (relative revenue)  = Σ R_A / (Σ R_A + Σ R_others)
//   u2 (absolute reward)   = (Σ R_A + Σ R_DS) / t
//   u3 (orphaning power)   = Σ O_others / (Σ R_A + Σ O_A)
//
// The primary stream is the numerator ("reward"), the secondary stream the
// denominator ("weight"). Plain average-reward problems simply use weight 1.
//
// The model itself is mdp::CompiledModel (compiled_model.hpp), built by
// ModelBuilder or instantiated from a ModelTemplate (model_template.hpp).
// This header holds the id types, the Outcome branch both builders collect,
// and the two functions that give both builders the same arithmetic.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace bvc::mdp {

using StateId = std::uint32_t;

/// External action label, chosen by the model author (e.g. kOnChain1 = 0).
/// Distinct from the *local* action index within a state's action list.
using ActionLabel = std::uint16_t;

/// One probabilistic branch of taking an action in a state.
struct Outcome {
  StateId next = 0;
  double probability = 0.0;
  double reward = 0.0;  ///< numerator stream increment
  double weight = 0.0;  ///< denominator stream increment
};

/// Flat index of a (state, action) pair inside a model.
using SaIndex = std::size_t;

/// Folds a branch (probability, reward, weight) into `into`, a branch of the
/// same action to the same successor: the probabilities add and the rewards
/// become their probability-weighted mean (the paper's Table 1 note: "when
/// multiple events lead to the same state ... the reward is weighted
/// according to the distribution"). ModelBuilder and
/// ModelTemplate::instantiate both merge through this one function, so both
/// round alike. (Inline so the per-cell fill pays no call per branch; the
/// library is built without floating-point contraction, so every inlined
/// copy rounds the same.)
inline void merge_outcome(Outcome& into, double probability, double reward,
                          double weight) {
  const double total = into.probability + probability;
  into.reward = (into.reward * into.probability + reward * probability) / total;
  into.weight = (into.weight * into.probability + weight * probability) / total;
  into.probability = total;
}

/// Checks that one action's merged branches sum to 1 within 1e-9 (`state`
/// names the action's state in the error), renormalizes them exactly, and
/// returns the action's expected (reward, weight) increments. Shared by
/// ModelBuilder::build and ModelTemplate::instantiate, like merge_outcome.
[[nodiscard]] inline std::pair<double, double> normalize_outcomes(
    std::span<Outcome> outcomes, StateId state) {
  double mass = 0.0;
  for (const Outcome& o : outcomes) {
    mass += o.probability;
  }
  BVC_REQUIRE(std::abs(mass - 1.0) < 1e-9,
              "outcome probabilities must sum to 1 (state " +
                  std::to_string(state) + ")");
  double expected_reward = 0.0;
  double expected_weight = 0.0;
  for (Outcome& o : outcomes) {
    o.probability /= mass;  // exact renormalization
    expected_reward += o.probability * o.reward;
    expected_weight += o.probability * o.weight;
  }
  return {expected_reward, expected_weight};
}

}  // namespace bvc::mdp
