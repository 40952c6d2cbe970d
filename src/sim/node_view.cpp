#include "sim/node_view.hpp"

#include "util/check.hpp"

namespace bvc::sim {

using chain::Block;
using chain::BlockId;
using chain::Height;
using chain::kNoBlock;

BuPrefixMemo::BuPrefixMemo(const chain::BlockTree& tree,
                           chain::BuParams params)
    : tree_(&tree), rule_(params) {
  states_.resize(1);
  states_[0].evaluated = true;  // genesis
}

void BuPrefixMemo::apply_block(PrefixState& state, const Block& block) const {
  const auto& params = rule_.params();
  if (block.size > params.message_limit) {
    state.invalid = true;
    return;
  }
  if (!rule_.is_excessive(block)) {
    if (state.gate_open && ++state.run >= params.gate_period) {
      state.gate_open = false;
      state.run = 0;
    }
    return;
  }
  if (state.gate_open) {
    state.run = 0;  // accepted under the gate; the run restarts
    return;
  }
  state.pending = block.id;  // needs AD depth from the current tip
}

BuPrefixMemo::PrefixState BuPrefixMemo::compute_state(BlockId id) const {
  const Block& block = tree_->block(id);
  BVC_ENSURE(block.parent != kNoBlock && evaluated(block.parent),
             "blocks must be learned parent-before-child");
  PrefixState state = states_[block.parent];  // evaluated, as its parent
  if (state.invalid) {
    return state;
  }

  if (state.pending != kNoBlock) {
    const Height pending_height = tree_->block(state.pending).height;
    const Height depth = block.height - pending_height + 1;
    if (depth < rule_.params().ad) {
      // Check the new block for outright invalidity even while pending.
      if (block.size > rule_.params().message_limit) {
        state.invalid = true;
      }
      return state;  // still pending on the same excessive block
    }
    // The pending excessive block reached its acceptance depth: replay the
    // window [pending .. id] on top of the pre-pending state. The replay
    // can itself leave a new pending window (without the sticky gate, each
    // excessive block needs its own depth).
    std::vector<BlockId> window;
    window.reserve(depth);
    for (BlockId cursor = id; cursor != state.pending;
         cursor = tree_->block(cursor).parent) {
      window.push_back(cursor);
    }
    window.push_back(state.pending);

    const BlockId pending_block = state.pending;
    state.pending = kNoBlock;
    for (auto it = window.rbegin(); it != window.rend(); ++it) {
      const Block& replayed = tree_->block(*it);
      if (*it == pending_block) {
        // This is the block whose depth was just satisfied: accept it and
        // (with the sticky gate) open the gate.
        if (replayed.size > rule_.params().message_limit) {
          state.invalid = true;
          break;
        }
        if (rule_.params().sticky_gate) {
          state.gate_open = true;
          state.run = 0;
        }
        continue;
      }
      apply_block(state, replayed);
      if (state.invalid) {
        break;
      }
      if (state.pending != kNoBlock) {
        // A later excessive block starts its own window; its depth is
        // measured from `id`, the current tip of this chain.
        const Height inner_height = tree_->block(state.pending).height;
        if (block.height - inner_height + 1 >= rule_.params().ad) {
          // Already deep enough (possible when AD is small): resolve
          // recursively by replaying the remainder. Simplest correct
          // handling: recompute from scratch via the reference rule.
          const chain::ChainStatus status = rule_.evaluate(*tree_, id);
          state.invalid =
              status.verdict == chain::ChainVerdict::kInvalid;
          state.pending =
              status.verdict == chain::ChainVerdict::kPendingDepth
                  ? *status.pending_block
                  : kNoBlock;
          state.gate_open = status.gate_open;
          state.run = status.gate.run;
          return state;
        }
      }
    }
    return state;
  }

  apply_block(state, block);
  if (state.pending == id && rule_.params().ad == 1) {
    // Degenerate acceptance depth: a one-block chain already satisfies AD,
    // so the excessive block is accepted the moment it appears.
    state.pending = kNoBlock;
    if (rule_.params().sticky_gate) {
      state.gate_open = true;
      state.run = 0;
    }
  }
  return state;
}

bool BuPrefixMemo::learn(BlockId id, BlockId& tip) {
  BVC_REQUIRE(id < tree_->size(), "unknown block id");
  if (states_.size() <= id) {
    states_.resize(tree_->size());
  }
  if (!states_[id].evaluated) {
    states_[id] = compute_state(id);
  }
  // Longest acceptable chain; first-seen keeps ties with the current tip.
  if (!acceptable(id) ||
      tree_->block(id).height <= tree_->block(tip).height) {
    return false;
  }
  tip = id;
  return true;
}

bool BuPrefixMemo::acceptable(BlockId id) const {
  BVC_REQUIRE(evaluated(id), "block not yet learned under this rule");
  const PrefixState& state = states_[id];
  return !state.invalid && state.pending == kNoBlock;
}

}  // namespace bvc::sim
