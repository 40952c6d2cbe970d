#include "mdp/model.hpp"

#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace bvc::mdp {

std::size_t Model::num_actions(StateId state) const {
  BVC_REQUIRE(state < num_states(), "state out of range");
  return state_begin_[state + 1] - state_begin_[state];
}

SaIndex Model::sa_index(StateId state, std::size_t a) const {
  BVC_REQUIRE(state < num_states(), "state out of range");
  const SaIndex sa = state_begin_[state] + a;
  BVC_REQUIRE(sa < state_begin_[state + 1], "action out of range for state");
  return sa;
}

ActionLabel Model::action_label(StateId state, std::size_t a) const {
  return action_labels_[sa_index(state, a)];
}

std::span<const Outcome> Model::outcomes(StateId state, std::size_t a) const {
  return outcomes(sa_index(state, a));
}

std::span<const Outcome> Model::outcomes(SaIndex sa) const {
  BVC_REQUIRE(sa < action_labels_.size(), "flat action index out of range");
  const std::size_t begin = action_begin_[sa];
  const std::size_t end = action_begin_[sa + 1];
  return {outcomes_.data() + begin, end - begin};
}

std::string Model::summary() const {
  std::ostringstream out;
  out << "Model{states=" << num_states()
      << ", state_actions=" << num_state_actions()
      << ", outcomes=" << outcomes_.size() << '}';
  return out.str();
}

ModelBuilder::ModelBuilder(StateId num_states) : num_states_(num_states) {
  BVC_REQUIRE(num_states > 0, "model needs at least one state");
  per_state_.resize(num_states);
}

void ModelBuilder::begin_action(StateId state, ActionLabel label) {
  BVC_REQUIRE(state < num_states_, "state out of range");
  per_state_[state].push_back(PendingAction{state, label, {}});
  has_current_ = true;
  current_state_ = state;
  current_index_ = per_state_[state].size() - 1;
}

void ModelBuilder::add_outcome(StateId next, double probability, double reward,
                               double weight) {
  BVC_REQUIRE(has_current_, "add_outcome before begin_action");
  BVC_REQUIRE(next < num_states_, "successor state out of range");
  BVC_REQUIRE(probability >= 0.0, "outcome probability must be >= 0");
  if (probability == 0.0) {
    return;  // zero-probability branches carry no information
  }
  auto& action = per_state_[current_state_][current_index_];
  // Merge duplicate successors so solvers see one branch per (s,a,s').
  for (Outcome& existing : action.outcomes) {
    if (existing.next == next) {
      merge_outcome(existing, probability, reward, weight);
      return;
    }
  }
  action.outcomes.push_back(Outcome{next, probability, reward, weight});
}

Model ModelBuilder::build() {
  Model model;
  model.state_begin_.reserve(num_states_ + 1);
  model.state_begin_.push_back(0);

  std::size_t total_actions = 0;
  std::size_t total_outcomes = 0;
  for (const auto& actions : per_state_) {
    total_actions += actions.size();
    for (const auto& action : actions) {
      total_outcomes += action.outcomes.size();
    }
  }
  model.action_begin_.reserve(total_actions + 1);
  model.action_begin_.push_back(0);
  model.action_labels_.reserve(total_actions);
  model.outcomes_.reserve(total_outcomes);
  model.expected_reward_.reserve(total_actions);
  model.expected_weight_.reserve(total_actions);

  for (StateId s = 0; s < num_states_; ++s) {
    auto& actions = per_state_[s];
    BVC_REQUIRE(!actions.empty(),
                "every state must have at least one action (state " +
                    std::to_string(s) + ")");
    for (auto& action : actions) {
      BVC_REQUIRE(!action.outcomes.empty(),
                  "every action must have at least one outcome");
      const auto [expected_reward, expected_weight] =
          normalize_outcomes(action.outcomes, s);
      model.action_labels_.push_back(action.label);
      model.expected_reward_.push_back(expected_reward);
      model.expected_weight_.push_back(expected_weight);
      for (const Outcome& o : action.outcomes) {
        model.outcomes_.push_back(o);
      }
      model.action_begin_.push_back(model.outcomes_.size());
    }
    model.state_begin_.push_back(model.action_labels_.size());
  }

  per_state_.clear();
  has_current_ = false;
  return model;
}

}  // namespace bvc::mdp
