// Sparse finite Markov decision process representation.
//
// A Model stores, for every state, a set of actions; for every (state,
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
// Storage is CSR-like: states index into a flat action array, actions index
// into a flat outcome array. Models are immutable once built; construct them
// through ModelBuilder.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

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

/// Flat index of a (state, action) pair inside a Model.
using SaIndex = std::size_t;

class Model {
 public:
  [[nodiscard]] StateId num_states() const noexcept {
    return static_cast<StateId>(state_begin_.size() - 1);
  }
  [[nodiscard]] std::size_t num_state_actions() const noexcept {
    return action_labels_.size();
  }
  [[nodiscard]] std::size_t num_outcomes() const noexcept {
    return outcomes_.size();
  }

  /// Number of actions available in `state` (always >= 1).
  [[nodiscard]] std::size_t num_actions(StateId state) const;

  /// Flat (state, action) index for the local action `a` of `state`.
  [[nodiscard]] SaIndex sa_index(StateId state, std::size_t a) const;

  /// External label of local action `a` of `state`.
  [[nodiscard]] ActionLabel action_label(StateId state, std::size_t a) const;

  /// Sparse outcome list of the (state, action) pair.
  [[nodiscard]] std::span<const Outcome> outcomes(StateId state,
                                                  std::size_t a) const;
  [[nodiscard]] std::span<const Outcome> outcomes(SaIndex sa) const;

  /// Expected per-step numerator / denominator increments of the pair.
  [[nodiscard]] double expected_reward(SaIndex sa) const {
    return expected_reward_[sa];
  }
  [[nodiscard]] double expected_weight(SaIndex sa) const {
    return expected_weight_[sa];
  }

  /// Human-readable structural summary (state/action/outcome counts).
  [[nodiscard]] std::string summary() const;

 private:
  friend class ModelBuilder;
  Model() = default;

  // state s owns flat actions [state_begin_[s], state_begin_[s+1])
  std::vector<SaIndex> state_begin_;
  // flat action i owns outcomes [action_begin_[i], action_begin_[i+1])
  std::vector<std::size_t> action_begin_;
  std::vector<ActionLabel> action_labels_;
  std::vector<Outcome> outcomes_;
  std::vector<double> expected_reward_;
  std::vector<double> expected_weight_;
};

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

/// Incremental Model construction. Usage:
///
///   ModelBuilder b(num_states);
///   b.begin_action(s, kOnChain2);
///   b.add_outcome(next, prob, reward, weight);
///   ...
///   Model m = b.build();
///
/// build() validates the structure: every state has at least one action,
/// every action has outcomes whose probabilities are non-negative and sum to
/// one within 1e-9 (they are then renormalized exactly).
class ModelBuilder {
 public:
  explicit ModelBuilder(StateId num_states);

  /// Starts a new action for `state`. States' actions may be declared in any
  /// state order, but the actions of one state must be contiguous calls.
  void begin_action(StateId state, ActionLabel label);

  /// Adds a branch to the action most recently begun.
  void add_outcome(StateId next, double probability, double reward = 0.0,
                   double weight = 0.0);

  /// Finalizes and validates the model. The builder is left empty.
  [[nodiscard]] Model build();

 private:
  struct PendingAction {
    StateId state = 0;
    ActionLabel label = 0;
    std::vector<Outcome> outcomes;
  };

  StateId num_states_;
  std::vector<std::vector<PendingAction>> per_state_;
  bool has_current_ = false;
  StateId current_state_ = 0;
  std::size_t current_index_ = 0;
};

}  // namespace bvc::mdp
