#include "mdp/compiled_model.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

#include "util/check.hpp"

namespace bvc::mdp {

namespace {

/// The one writer of the ELL layout (the model's mirrors and every
/// PolicyChain): row i of the block is flat action row_sa(i) of `index`'s
/// CSR layout, and its cells are that action's entries of `column`, stored
/// column-major as out[j * stride + i]. Entries past a row's real outcomes,
/// and rows past `rows` up to the stride, stay 0. The stride is `rows`
/// rounded up to 8, so an 8-lane load at any row < `rows` stays inside the
/// allocation. Returns the stride.
template <typename T, typename RowSa>
std::size_t fill_ell(const IndexColumns& index, std::size_t rows,
                     RowSa row_sa, std::size_t width, const T* column,
                     util::AlignedVector<T>& out) {
  const std::size_t stride = (rows + 7) / 8 * 8;
  out.assign(width * stride, T{});
  for (std::size_t i = 0; i < rows; ++i) {
    const SaIndex sa = row_sa(i);
    const std::size_t begin = index.outcome_begin[sa];
    const std::size_t end = index.outcome_begin[sa + 1];
    for (std::size_t k = begin; k < end; ++k) {
      out[(k - begin) * stride + i] = column[k];
    }
  }
  return stride;
}

constexpr auto kEveryAction = [](std::size_t sa) { return sa; };

std::size_t footprint(const auto& column) {
  return util::aligned_footprint(column.size() *
                                 sizeof(column.data()[0]));
}

}  // namespace

void IndexColumns::finalize() {
  // ELL policy: pad every action to the widest row iff the widest row is
  // short and the padding overhead is bounded (see kMaxEllWidth /
  // kMaxEllPaddingFactor in the header). The attack models' actions have
  // at most 3 outcomes, so they always qualify.
  const std::size_t num_sa = action_labels.size();
  const std::size_t num_states = state_begin.size() - 1;
  uniform_actions = num_states > 0 ? state_begin[1] - state_begin[0] : 0;
  for (std::size_t s = 1; s < num_states; ++s) {
    if (state_begin[s + 1] - state_begin[s] != uniform_actions) {
      uniform_actions = 0;
      break;
    }
  }
  std::size_t width = 0;
  for (std::size_t sa = 0; sa < num_sa; ++sa) {
    width = std::max(width, outcome_begin[sa + 1] - outcome_begin[sa]);
  }
  ell_width = 0;
  ell_stride = 0;
  ell_next.clear();
  if (num_sa > 0 && width > 0 && width <= CompiledModel::kMaxEllWidth &&
      width * num_sa <= CompiledModel::kMaxEllPaddingFactor * next.size()) {
    ell_width = width;
    ell_stride =
        fill_ell(*this, num_sa, kEveryAction, width, next.data(), ell_next);
  }
}

std::size_t IndexColumns::bytes_resident() const noexcept {
  return footprint(state_begin) + footprint(action_labels) +
         footprint(outcome_begin) + footprint(next) + footprint(ell_next);
}

CompiledModel::CompiledModel(std::shared_ptr<const IndexColumns> index)
    : index_(std::move(index)) {}

void CompiledModel::finalize_values() {
  ell_prob_.clear();
  if (has_ell()) {
    fill_ell(*index_, num_state_actions(), kEveryAction, ell_width(),
             prob_.data(), ell_prob_);
  }
  build_codes();
}

std::size_t CompiledModel::bytes_resident() const noexcept {
  return index_->bytes_resident() + footprint(prob_) + footprint(reward_) +
         footprint(weight_) + footprint(expected_reward_) +
         footprint(expected_weight_) + footprint(ell_prob_) +
         footprint(ell_code_) + footprint(palette_);
}

void CompiledModel::build_codes() {
  ell_code_.clear();
  palette_.clear();
  palette_size_ = 0;
  zero_code_ = 0;
  if (!has_ell()) {
    return;
  }
  // Values compare by bit pattern, so palette()[code] always has the exact
  // bits of the cell it codes (-0.0 and +0.0 would take two slots).
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  util::AlignedVector<double> palette(kPaletteSize, 0.0);
  std::size_t size = 0;
  util::AlignedVector<std::uint8_t> codes(ell_prob_.size());
  // Neighbouring cells mostly hold the same value (one event's share), so
  // the last cell's code is tried before the palette is searched.
  std::size_t last = 0;
  for (std::size_t i = 0; i < ell_prob_.size(); ++i) {
    const std::uint64_t value = bits(ell_prob_[i]);
    std::size_t code = last;
    if (code >= size || bits(palette[code]) != value) {
      code = 0;
      while (code < size && bits(palette[code]) != value) {
        ++code;
      }
      if (code == size) {
        if (size == kPaletteSize) {
          return;
        }
        palette[size++] = ell_prob_[i];
      }
      last = code;
    }
    codes[i] = static_cast<std::uint8_t>(code);
  }
  // +0.0 codes the chains' padding: its own slot if a cell holds it, else
  // the first unused slot (unused slots are +0.0). A full palette without
  // it leaves the model uncoded.
  std::size_t zero = 0;
  while (zero < size && bits(palette[zero]) != bits(0.0)) {
    ++zero;
  }
  if (zero == kPaletteSize) {
    return;
  }
  ell_code_ = std::move(codes);
  palette_ = std::move(palette);
  palette_size_ = size;
  zero_code_ = static_cast<std::uint8_t>(zero);
}

PolicyChain::PolicyChain(const CompiledModel& model,
                         std::span<const std::uint32_t> policy,
                         std::span<const double> sa_rewards) {
  const StateId n = model.num_states();
  BVC_REQUIRE(policy.size() == n,
              "policy must assign an action to every state");
  BVC_REQUIRE(sa_rewards.size() == model.num_state_actions(),
              "sa_rewards must cover every (state, action) pair");
  reward_.resize(n);
  for (StateId s = 0; s < n; ++s) {
    BVC_REQUIRE(policy[s] < model.num_actions(s),
                "policy action out of range for its state");
    const SaIndex sa = model.sa_index(s, policy[s]);
    width_ = std::max(width_, model.outcome_end(sa) - model.outcome_begin(sa));
    reward_[s] = sa_rewards[sa];
  }
  const auto row_sa = [&](std::size_t s) {
    return model.sa_index(static_cast<StateId>(s), policy[s]);
  };
  stride_ = fill_ell(model.index(), n, row_sa, width_, model.prob(), prob_);
  fill_ell(model.index(), n, row_sa, width_, model.next(), next_);
  if (model.has_codes()) {
    // The chain is at most as wide as the mirror, and the mirror's cells
    // past a row's outcomes are padding, so copying `width_` cells per row
    // copies their codes too.
    code_.assign(width_ * stride_, model.zero_code());
    const std::uint8_t* ell_code = model.ell_code();
    const std::size_t ell_stride = model.ell_stride();
    for (StateId s = 0; s < n; ++s) {
      const SaIndex sa = row_sa(s);
      for (std::size_t j = 0; j < width_; ++j) {
        code_[j * stride_ + s] = ell_code[j * ell_stride + sa];
      }
    }
    palette_.assign(model.palette(),
                    model.palette() + CompiledModel::kPaletteSize);
  }
}

ModelBuilder::ModelBuilder(StateId num_states) : num_states_(num_states) {
  BVC_REQUIRE(num_states > 0, "model needs at least one state");
  per_state_.resize(num_states);
}

void ModelBuilder::begin_action(StateId state, ActionLabel label) {
  BVC_REQUIRE(state < num_states_, "state out of range");
  per_state_[state].push_back(PendingAction{label, {}});
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

CompiledModel ModelBuilder::build() {
  std::size_t total_actions = 0;
  std::size_t total_outcomes = 0;
  for (const auto& actions : per_state_) {
    total_actions += actions.size();
    for (const auto& action : actions) {
      total_outcomes += action.outcomes.size();
    }
  }
  auto index = std::make_shared<IndexColumns>();
  index->state_begin.reserve(num_states_ + 1);
  index->action_labels.reserve(total_actions);
  index->outcome_begin.reserve(total_actions + 1);
  index->next.reserve(total_outcomes);
  CompiledModel model(index);
  model.prob_.reserve(total_outcomes);
  model.reward_.reserve(total_outcomes);
  model.weight_.reserve(total_outcomes);
  model.expected_reward_.reserve(total_actions);
  model.expected_weight_.reserve(total_actions);

  index->state_begin.push_back(0);
  index->outcome_begin.push_back(0);
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
      index->action_labels.push_back(action.label);
      model.expected_reward_.push_back(expected_reward);
      model.expected_weight_.push_back(expected_weight);
      for (const Outcome& o : action.outcomes) {
        index->next.push_back(o.next);
        model.prob_.push_back(o.probability);
        model.reward_.push_back(o.reward);
        model.weight_.push_back(o.weight);
      }
      index->outcome_begin.push_back(index->next.size());
    }
    index->state_begin.push_back(index->action_labels.size());
  }

  per_state_.assign(num_states_, {});
  has_current_ = false;
  index->finalize();
  model.finalize_values();
  return model;
}

std::string CompiledModel::summary() const {
  std::ostringstream out;
  out << "CompiledModel{states=" << num_states()
      << ", state_actions=" << num_state_actions()
      << ", outcomes=" << num_outcomes()
      << ", align=" << util::kColumnAlignment << "B";
  if (has_ell()) {
    out << ", ell_width=" << ell_width();
  }
  if (has_codes()) {
    out << ", palette=" << palette_size_;
  }
  out << '}';
  return out.str();
}

}  // namespace bvc::mdp
