// What BU nodes see of a growing block tree: the memoized prefix states of
// one validity rule, and the tip rule every node of that rule follows.
//
// chain::BuNodeRule::evaluate() walks a whole chain; for long event-driven
// simulations that is O(height) per query. BuPrefixMemo instead memoizes a
// per-block "prefix state" (gate open? run length? pending window?) so each
// newly learned block costs O(1) amortized (O(AD) when it resolves a
// pending excessive block). A prefix state depends only on the rule and the
// chain, never on which node asks or when, so every node that runs the
// rule shares one memo and a block is evaluated once per rule, not once
// per node. A node itself is then just its tip, plus whatever record of
// the blocks it knows the caller keeps: blocks must reach a node
// parent-before-child.
//
// The equivalence of this incremental evaluation with the reference
// implementation is property-tested in tests/node_view_test.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/block_tree.hpp"
#include "chain/bu_validity.hpp"

namespace bvc::sim {

class BuPrefixMemo {
 public:
  /// `tree` must outlive the memo. Genesis is evaluated from construction.
  BuPrefixMemo(const chain::BlockTree& tree, chain::BuParams params);

  [[nodiscard]] const chain::BuParams& params() const noexcept {
    return rule_.params();
  }

  /// A node of this rule, mining on `tip`, learns block `id`. The parent
  /// of `id` must already be learned by a node of the rule. Evaluates the
  /// chain ending at `id` unless the memo holds it, then applies the tip
  /// rule: the node moves to `id` when that chain is acceptable and
  /// strictly higher than `tip`, so the first-seen block keeps ties.
  /// Returns whether `tip` moved.
  bool learn(chain::BlockId id, chain::BlockId& tip);

  /// Whether the chain ending at `id` is acceptable under the rule (`id`
  /// must have been learned by a node of the rule).
  [[nodiscard]] bool acceptable(chain::BlockId id) const;

 private:
  struct PrefixState {
    bool evaluated = false;
    bool invalid = false;
    bool gate_open = false;
    chain::Height run = 0;  ///< consecutive non-excessive since gate opened
    /// First unresolved excessive block on this chain (kNoBlock if none):
    /// while set, the chain is pending and the rest of the state describes
    /// the prefix *before* that block.
    chain::BlockId pending = chain::kNoBlock;
  };

  [[nodiscard]] bool evaluated(chain::BlockId id) const {
    return id < states_.size() && states_[id].evaluated;
  }
  [[nodiscard]] PrefixState compute_state(chain::BlockId id) const;
  /// Applies one block's gate semantics to a concrete (non-pending) state.
  void apply_block(PrefixState& state, const chain::Block& block) const;

  const chain::BlockTree* tree_;
  chain::BuNodeRule rule_;
  std::vector<PrefixState> states_;  // indexed by BlockId
};

}  // namespace bvc::sim
