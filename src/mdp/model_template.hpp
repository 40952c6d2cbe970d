// One compiled model per rule set, with probabilities per cell.
//
// The paper's attack models (bu::AttackParams, btc::SmParams) have a rule
// set — the setting, AD, gate period, utility, ... — that fixes every
// state, action, successor and reward, and mining-power shares that only
// weight the events. A ModelTemplate is the rule set's model with each
// branch's probability left as a SYMBOL: an index into a small table of
// numbers that each cell supplies (for bu: alpha, beta, gamma and the two
// shares renormalized without Alice). It holds
//
//   * the index columns (IndexColumns: state_begin, action labels,
//     outcome_begin, next, the ELL next mirror), exactly as
//     CompiledModel::compile would lay them out, and
//   * each action's VALUE CLASS: its merged outcomes — one per successor,
//     as ModelBuilder merges them — each with its ordered contributions
//     (the symbol, reward and weight of every branch that landed on that
//     successor). Where the branches go does not enter a class, so actions
//     whose contributions match share one: the 157,400 outcome rows of the
//     setting-2 attack model fall into a few hundred classes.
//
// instantiate(symbols) computes each class's probabilities, rewards and
// expectations once, by ModelBuilder's arithmetic (merge_outcome, then
// normalize_outcomes, both from model.hpp), copies them into the rows of
// the class's actions, builds the ELL prob mirror and its palette codes,
// and returns a CompiledModel that shares the template's index. Every
// column is bit-identical to CompiledModel::compile of the Model the same
// loop authors with the cell's probabilities (CellModelBuilder);
// test_compiled_model checks this over the paper's cells.
//
// A model author writes its enumeration loop once, against symbols, and
// runs it with either builder: TemplateBuilder for the template,
// CellModelBuilder for one cell's authoring Model. ModelBuilder drops a
// zero-probability branch, so a branch whose symbol can be zero in some
// cells must be left out by the loop in those cells, and the template key
// (mdp::ModelCache holds one template per key) must name every input that
// decides which branches exist. instantiate() rejects a used symbol whose
// value is not positive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mdp/compiled_model.hpp"
#include "mdp/model.hpp"

namespace bvc::mdp {

/// Index of a branch probability in a cell's symbol table.
using Symbol = std::uint8_t;

class ModelTemplate {
 public:
  [[nodiscard]] StateId num_states() const noexcept {
    return static_cast<StateId>(index_->state_begin.size() - 1);
  }
  /// Merged outcomes: the compiled models' outcome rows.
  [[nodiscard]] std::size_t num_outcomes() const noexcept {
    return index_->next.size();
  }

  /// The compiled model of the cell whose symbol values are `symbols` (one
  /// per symbol of the builder). Checks that every used symbol is positive
  /// and that every action's probabilities sum to 1 within 1e-9.
  [[nodiscard]] CompiledModel instantiate(
      std::span<const double> symbols) const;

  /// Bytes of the index columns plus the value-class columns.
  [[nodiscard]] std::size_t bytes_resident() const noexcept;

 private:
  friend class TemplateBuilder;

  struct Contribution {
    double reward = 0.0;
    double weight = 0.0;
    Symbol symbol = 0;
  };

  std::shared_ptr<const IndexColumns> index_;
  // flat action sa takes the values of class action_class_[sa], and
  // outcome row k those of merged outcome value_row_[k] of that class
  std::vector<std::uint32_t> action_class_;
  std::vector<std::uint32_t> value_row_;
  // class c owns merged outcomes [class_begin_[c], class_begin_[c+1]), and
  // class_state_[c] is the first state with an action of the class
  std::vector<std::uint32_t> class_begin_;
  std::vector<StateId> class_state_;
  // merged outcome k owns contributions
  // [contribution_begin_[k], contribution_begin_[k+1])
  std::vector<std::uint32_t> contribution_begin_;
  std::vector<Contribution> contributions_;
  std::size_t num_symbols_ = 0;
  std::uint64_t used_symbols_ = 0;  ///< bit s: some branch uses symbol s
};

/// ModelBuilder's interface with a symbol in place of each probability.
/// States must be declared in increasing order, each state's actions
/// contiguously; outcomes of one action that share a successor merge, in
/// ModelBuilder's order.
class TemplateBuilder {
 public:
  /// `num_symbols` (at most 64) is the size of the cells' symbol tables.
  TemplateBuilder(StateId num_states, std::size_t num_symbols);

  void begin_action(StateId state, ActionLabel label);
  void add_outcome(StateId next, Symbol symbol, double reward,
                   double weight);

  /// Finalizes the template (every state needs an action, every action an
  /// outcome). Call once.
  [[nodiscard]] ModelTemplate build();

 private:
  struct Branch {
    StateId next = 0;
    ModelTemplate::Contribution contribution;
  };

  /// Groups the open action's branches by successor into the columns and
  /// files the action under its value class.
  void close_action();
  /// Closes every declared state below `state`; each needs an action.
  void close_states_before(std::size_t state);

  StateId num_states_;
  ModelTemplate template_;
  std::shared_ptr<IndexColumns> index_;
  std::vector<Branch> open_;  ///< the open action's branches, in order
  bool has_action_ = false;
  StateId open_state_ = 0;
  /// Value classes by signature: each merged outcome's contribution count,
  /// then its contributions' symbols and reward/weight bits.
  std::unordered_map<std::string, std::uint32_t> classes_;
};

/// ModelBuilder behind TemplateBuilder's interface: each branch's symbol
/// resolves to its value in `symbols` (which must outlive the builder), so
/// a loop written once against symbols also authors one cell's plain Model.
class CellModelBuilder {
 public:
  CellModelBuilder(StateId num_states, std::span<const double> symbols)
      : builder_(num_states), symbols_(symbols) {}

  void begin_action(StateId state, ActionLabel label) {
    builder_.begin_action(state, label);
  }
  void add_outcome(StateId next, Symbol symbol, double reward,
                   double weight) {
    builder_.add_outcome(next, symbols_[symbol], reward, weight);
  }
  [[nodiscard]] Model build() { return builder_.build(); }

 private:
  ModelBuilder builder_;
  std::span<const double> symbols_;
};

}  // namespace bvc::mdp
