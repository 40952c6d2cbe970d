#include "chain/block_tree.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bvc::chain {

BlockTree::BlockTree() {
  blocks_.push_back(Block{0, kNoBlock, 0, 0, kNoMiner});
}

BlockId BlockTree::add_block(BlockId parent, ByteSize size, MinerId miner) {
  BVC_REQUIRE(parent < blocks_.size(), "parent block does not exist");
  const auto id = static_cast<BlockId>(blocks_.size());
  blocks_.push_back(
      Block{id, parent, blocks_[parent].height + 1, size, miner});
  return id;
}

const Block& BlockTree::block(BlockId id) const {
  BVC_REQUIRE(id < blocks_.size(), "block does not exist");
  return blocks_[id];
}

BlockId BlockTree::ancestor_at_height(BlockId id, Height height) const {
  BVC_REQUIRE(id < blocks_.size(), "block does not exist");
  BVC_REQUIRE(height <= blocks_[id].height,
              "requested ancestor height above the block");
  BlockId cursor = id;
  while (blocks_[cursor].height > height) {
    cursor = blocks_[cursor].parent;
  }
  return cursor;
}

std::vector<BlockId> BlockTree::path_from_genesis(BlockId id) const {
  BVC_REQUIRE(id < blocks_.size(), "block does not exist");
  std::vector<BlockId> path;
  path.reserve(blocks_[id].height + 1);
  for (BlockId cursor = id;; cursor = blocks_[cursor].parent) {
    path.push_back(cursor);
    if (cursor == genesis()) {
      break;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace bvc::chain
