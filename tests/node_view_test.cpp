// BuPrefixMemo (incremental, memoized evaluation) must agree with the
// reference whole-chain evaluator chain::BuNodeRule on every block of
// randomly grown trees, for random parameters — including sticky-gate and
// no-gate modes, small ADs (instant acceptance) and short gate periods —
// and nodes sharing one memo must end where private memos would leave them.
#include <gtest/gtest.h>

#include <vector>

#include "chain/block_tree.hpp"
#include "chain/bu_validity.hpp"
#include "sim/node_view.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using namespace bvc::chain;

constexpr ByteSize kMB = kMegabyte;
constexpr ByteSize kSizes[] = {kMB / 2, kMB,      2 * kMB,
                               8 * kMB, 20 * kMB, kMessageLimit + 1};

BuParams random_params(Rng& rng) {
  BuParams params;
  const ByteSize ebs[] = {kMB, 2 * kMB, 8 * kMB};
  params.eb = ebs[rng.next_below(3)];
  params.ad = 1 + static_cast<Height>(rng.next_below(5));
  params.gate_period = 2 + static_cast<Height>(rng.next_below(8));
  params.sticky_gate = rng.next_bernoulli(0.7);
  return params;
}

class NodeViewProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NodeViewProperties, MatchesReferenceEvaluatorOnRandomTrees) {
  Rng rng(GetParam());
  const BuParams params = random_params(rng);

  BlockTree tree;
  const BuNodeRule reference(params);
  sim::BuPrefixMemo memo(tree, params);
  BlockId tip = tree.genesis();

  for (int i = 0; i < 200; ++i) {
    const auto parent = static_cast<BlockId>(rng.next_below(tree.size()));
    const BlockId id = tree.add_block(parent, kSizes[rng.next_below(6)], 0);
    memo.learn(id, tip);

    const ChainStatus status = reference.evaluate(tree, id);
    EXPECT_EQ(memo.acceptable(id),
              status.verdict == ChainVerdict::kAcceptable)
        << "block " << id << " seed " << GetParam();
  }

  // The tip is the deepest acceptable block (first-seen on ties).
  EXPECT_TRUE(reference.chain_acceptable(tree, tip));
  for (BlockId id = 0; id < tree.size(); ++id) {
    if (reference.chain_acceptable(tree, id)) {
      EXPECT_LE(tree.block(id).height, tree.block(tip).height);
    }
  }
}

TEST_P(NodeViewProperties, SharedMemoMatchesPrivateMemos) {
  // Three nodes of one rule learn the same tree, each in its own random
  // parent-first order, interleaved. Through one shared memo, a node often
  // reads a state another node evaluated; every learn must still move its
  // tip exactly as through a memo of its own.
  Rng rng(GetParam() ^ 0x5EED);
  const BuParams params = random_params(rng);
  BlockTree tree;
  for (int i = 0; i < 120; ++i) {
    const auto parent = static_cast<BlockId>(rng.next_below(tree.size()));
    tree.add_block(parent, kSizes[rng.next_below(6)], 0);
  }

  // Each block's children from the parent links, in id (arrival) order.
  std::vector<std::vector<BlockId>> children(tree.size());
  for (BlockId id = 1; id < tree.size(); ++id) {
    children[tree.block(id).parent].push_back(id);
  }

  constexpr std::size_t kNodes = 3;
  sim::BuPrefixMemo shared(tree, params);
  std::vector<sim::BuPrefixMemo> own(kNodes, sim::BuPrefixMemo(tree, params));
  std::vector<BlockId> shared_tips(kNodes, tree.genesis());
  std::vector<BlockId> own_tips(kNodes, tree.genesis());
  // Per node, the blocks whose parent it knows and which it has not learned.
  std::vector<std::vector<BlockId>> frontier(kNodes);
  for (auto& blocks : frontier) {
    blocks = children[tree.genesis()];
  }
  std::size_t learned = 0;
  while (learned < kNodes * (tree.size() - 1)) {
    const std::size_t node = rng.next_below(kNodes);
    std::vector<BlockId>& blocks = frontier[node];
    if (blocks.empty()) {
      continue;
    }
    const std::size_t pick = rng.next_below(blocks.size());
    const BlockId id = blocks[pick];
    blocks[pick] = blocks.back();
    blocks.pop_back();
    blocks.insert(blocks.end(), children[id].begin(), children[id].end());

    EXPECT_EQ(shared.learn(id, shared_tips[node]),
              own[node].learn(id, own_tips[node]))
        << "block " << id << " node " << node << " seed " << GetParam();
    EXPECT_EQ(shared_tips[node], own_tips[node]);
    ++learned;
  }
  // Every node ends on the same tip: the first-seen order differs, but only
  // among blocks of equal height.
  for (std::size_t node = 0; node < kNodes; ++node) {
    EXPECT_EQ(tree.block(shared_tips[node]).height,
              tree.block(shared_tips[0]).height);
  }
}

TEST_P(NodeViewProperties, OutOfOrderLearningIsRejected) {
  Rng rng(GetParam() ^ 0xDEAD);
  BlockTree tree;
  BuParams params;
  sim::BuPrefixMemo memo(tree, params);
  BlockId tip = tree.genesis();
  const BlockId a = tree.add_block(tree.genesis(), kMB, 0);
  const BlockId b = tree.add_block(a, kMB, 0);
  EXPECT_THROW((void)memo.learn(b, tip), InternalError);
  (void)rng;
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, NodeViewProperties,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{25}));

TEST(NodeView, TracksTipChanges) {
  BlockTree tree;
  BuParams params;
  params.eb = kMB;
  params.ad = 3;
  sim::BuPrefixMemo memo(tree, params);
  BlockId tip = tree.genesis();

  const BlockId a = tree.add_block(tree.genesis(), kMB, 0);
  EXPECT_TRUE(memo.learn(a, tip));
  EXPECT_EQ(tip, a);

  // An excessive block pends: the tip stays.
  const BlockId big = tree.add_block(a, 2 * kMB, 0);
  EXPECT_FALSE(memo.learn(big, tip));
  EXPECT_EQ(tip, a);

  // Two blocks on top resolve it: the tip jumps to the deepest block.
  const BlockId c = tree.add_block(big, kMB, 0);
  EXPECT_FALSE(memo.learn(c, tip));
  const BlockId d = tree.add_block(c, kMB, 0);
  EXPECT_TRUE(memo.learn(d, tip));
  EXPECT_EQ(tip, d);
}

TEST(NodeView, FirstSeenWinsTies) {
  BlockTree tree;
  BuParams params;
  sim::BuPrefixMemo memo(tree, params);
  BlockId tip = tree.genesis();
  const BlockId first = tree.add_block(tree.genesis(), kMB, 0);
  const BlockId second = tree.add_block(tree.genesis(), kMB, 1);
  EXPECT_TRUE(memo.learn(first, tip));
  EXPECT_FALSE(memo.learn(second, tip));
  EXPECT_EQ(tip, first);
}

TEST(NodeView, LearnIsIdempotent) {
  BlockTree tree;
  sim::BuPrefixMemo memo(tree, BuParams{});
  BlockId tip = tree.genesis();
  const BlockId a = tree.add_block(tree.genesis(), kMB, 0);
  EXPECT_TRUE(memo.learn(a, tip));
  EXPECT_FALSE(memo.learn(a, tip));
  EXPECT_EQ(tip, a);
}

}  // namespace
