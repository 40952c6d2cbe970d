// An append-only tree of blocks rooted at a genesis block.
//
// The tree itself has no notion of validity: different BU nodes disagree on
// which blocks are acceptable, so validity lives in per-node rule objects
// (BitcoinValidity, BuNodeRule) that are evaluated against this shared tree.
#pragma once

#include <vector>

#include "chain/types.hpp"

namespace bvc::chain {

class BlockTree {
 public:
  /// Creates a tree containing only the genesis block (height 0, size 0).
  BlockTree();

  /// Appends a block on `parent`; returns its id. Ids increase in arrival
  /// order, which callers may use as the first-seen order.
  BlockId add_block(BlockId parent, ByteSize size, MinerId miner = kNoMiner);

  [[nodiscard]] const Block& block(BlockId id) const;
  [[nodiscard]] BlockId genesis() const noexcept { return 0; }
  [[nodiscard]] std::size_t size() const noexcept { return blocks_.size(); }

  /// The ancestor of `id` at `height` (walks parent links).
  /// Requires height <= block(id).height.
  [[nodiscard]] BlockId ancestor_at_height(BlockId id, Height height) const;

  /// The path from genesis (inclusive) to `id` (inclusive), in height order.
  [[nodiscard]] std::vector<BlockId> path_from_genesis(BlockId id) const;

 private:
  std::vector<Block> blocks_;
};

}  // namespace bvc::chain
