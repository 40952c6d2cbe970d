#include "mdp/model_template.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

CompiledModel ModelTemplate::instantiate(
    std::span<const double> symbols) const {
  obs::Span span("model.instantiate", "mdp");
  BVC_REQUIRE(symbols.size() == num_symbols_,
              "a cell must give a value for every template symbol");
  for (std::size_t s = 0; s < num_symbols_; ++s) {
    BVC_REQUIRE(((used_symbols_ >> s) & 1u) == 0 || symbols[s] > 0.0,
                "every branch of a template must have positive probability");
  }

  // Each class's values by ModelBuilder's arithmetic: merge each outcome's
  // contributions in order, then renormalize and take the expectations.
  const std::size_t classes = class_state_.size();
  std::vector<Outcome> merged(contribution_begin_.size() - 1);
  std::vector<std::pair<double, double>> expected(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    const std::uint32_t begin = class_begin_[c];
    const std::uint32_t end = class_begin_[c + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      std::uint32_t i = contribution_begin_[k];
      Outcome& o = merged[k];
      o = Outcome{0, symbols[contributions_[i].symbol],
                  contributions_[i].reward, contributions_[i].weight};
      for (++i; i < contribution_begin_[k + 1]; ++i) {
        merge_outcome(o, symbols[contributions_[i].symbol],
                      contributions_[i].reward, contributions_[i].weight);
      }
    }
    expected[c] = normalize_outcomes({merged.data() + begin, end - begin},
                                     class_state_[c]);
  }

  // Every action's rows are a copy of its class's.
  const std::size_t rows = value_row_.size();
  const std::size_t actions = action_class_.size();
  CompiledModel model(index_);
  model.prob_.resize(rows);
  model.reward_.resize(rows);
  model.weight_.resize(rows);
  model.expected_reward_.resize(actions);
  model.expected_weight_.resize(actions);
  for (std::size_t k = 0; k < rows; ++k) {
    const Outcome& value = merged[value_row_[k]];
    model.prob_[k] = value.probability;
    model.reward_[k] = value.reward;
    model.weight_[k] = value.weight;
  }
  for (std::size_t sa = 0; sa < actions; ++sa) {
    model.expected_reward_[sa] = expected[action_class_[sa]].first;
    model.expected_weight_[sa] = expected[action_class_[sa]].second;
  }
  model.finalize_values();
  return model;
}

std::size_t ModelTemplate::bytes_resident() const noexcept {
  const auto bytes = [](const auto& column) {
    return column.capacity() * sizeof(column[0]);
  };
  return index_->bytes_resident() + bytes(action_class_) +
         bytes(value_row_) + bytes(class_begin_) + bytes(class_state_) +
         bytes(contribution_begin_) + bytes(contributions_);
}

TemplateBuilder::TemplateBuilder(StateId num_states, std::size_t num_symbols)
    : num_states_(num_states), index_(std::make_shared<IndexColumns>()) {
  BVC_REQUIRE(num_states > 0, "model needs at least one state");
  BVC_REQUIRE(num_symbols >= 1 && num_symbols <= 64,
              "a template takes 1 to 64 symbols");
  template_.num_symbols_ = num_symbols;
  index_->state_begin.push_back(0);
  index_->outcome_begin.push_back(0);
  template_.class_begin_.push_back(0);
  template_.contribution_begin_.push_back(0);
}

void TemplateBuilder::begin_action(StateId state, ActionLabel label) {
  BVC_REQUIRE(state < num_states_, "state out of range");
  close_action();
  BVC_REQUIRE(state + 1 >= index_->state_begin.size(),
              "template states must be declared in increasing order");
  close_states_before(state);
  index_->action_labels.push_back(label);
  has_action_ = true;
  open_state_ = state;
}

void TemplateBuilder::add_outcome(StateId next, Symbol symbol, double reward,
                                  double weight) {
  BVC_REQUIRE(has_action_, "add_outcome before begin_action");
  BVC_REQUIRE(next < num_states_, "successor state out of range");
  BVC_REQUIRE(symbol < template_.num_symbols_, "symbol out of range");
  template_.used_symbols_ |= std::uint64_t{1} << symbol;
  open_.push_back(Branch{next, {reward, weight, symbol}});
}

void TemplateBuilder::close_action() {
  if (!has_action_) {
    return;
  }
  has_action_ = false;
  BVC_REQUIRE(!open_.empty(), "every action must have at least one outcome");
  IndexColumns& index = *index_;
  const std::size_t first = index.next.size();
  // One merged outcome per successor, in first-seen order, holding every
  // branch to that successor in the order the loop added them. `order`
  // lists the branches merged outcome by merged outcome.
  std::vector<std::size_t> order;
  std::string signature;
  for (std::size_t i = 0; i < open_.size(); ++i) {
    if (std::find(index.next.begin() + static_cast<std::ptrdiff_t>(first),
                  index.next.end(), open_[i].next) != index.next.end()) {
      continue;  // merged into an earlier branch's outcome
    }
    index.next.push_back(open_[i].next);
    const std::size_t count = order.size();
    for (std::size_t j = i; j < open_.size(); ++j) {
      if (open_[j].next == open_[i].next) {
        order.push_back(j);
      }
    }
    signature += static_cast<char>(order.size() - count);
    for (std::size_t n = count; n < order.size(); ++n) {
      const ModelTemplate::Contribution& c = open_[order[n]].contribution;
      signature += static_cast<char>(c.symbol);
      signature.append(reinterpret_cast<const char*>(&c.reward),
                       sizeof(c.reward));
      signature.append(reinterpret_cast<const char*>(&c.weight),
                       sizeof(c.weight));
    }
  }
  index.outcome_begin.push_back(index.next.size());

  ModelTemplate& t = template_;
  const auto [it, inserted] = classes_.try_emplace(
      std::move(signature), static_cast<std::uint32_t>(t.class_state_.size()));
  if (inserted) {
    std::size_t n = 0;
    for (std::size_t k = first; k < index.next.size(); ++k) {
      while (n < order.size() && open_[order[n]].next == index.next[k]) {
        t.contributions_.push_back(open_[order[n++]].contribution);
      }
      t.contribution_begin_.push_back(
          static_cast<std::uint32_t>(t.contributions_.size()));
    }
    t.class_begin_.push_back(
        static_cast<std::uint32_t>(t.contribution_begin_.size() - 1));
    t.class_state_.push_back(open_state_);
  }
  t.action_class_.push_back(it->second);
  for (std::uint32_t k = t.class_begin_[it->second];
       k < t.class_begin_[it->second + 1]; ++k) {
    t.value_row_.push_back(k);
  }
  open_.clear();
}

void TemplateBuilder::close_states_before(std::size_t state) {
  auto& state_begin = index_->state_begin;
  while (state_begin.size() <= state) {
    BVC_REQUIRE(index_->action_labels.size() > state_begin.back(),
                "every state must have at least one action (state " +
                    std::to_string(state_begin.size() - 1) + ")");
    state_begin.push_back(index_->action_labels.size());
  }
}

ModelTemplate TemplateBuilder::build() {
  obs::Span span("model.template", "mdp");
  close_action();
  close_states_before(num_states_);
  index_->finalize();
  template_.index_ = std::move(index_);
  span.arg("outcomes", static_cast<std::int64_t>(template_.num_outcomes()));
  span.arg("classes",
           static_cast<std::int64_t>(template_.class_state_.size()));
  return std::move(template_);
}

}  // namespace bvc::mdp
