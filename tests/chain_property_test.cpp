// Property tests for the BU validity rules on randomly grown block trees.
#include <gtest/gtest.h>

#include <vector>

#include "chain/block_tree.hpp"
#include "chain/bu_validity.hpp"
#include "chain/bitcoin_validity.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using namespace bvc::chain;

constexpr ByteSize kMB = kMegabyte;

struct RandomChainCase {
  BlockTree tree;
  std::vector<BlockId> blocks;  // every non-genesis block
};

/// Grows a random tree whose block sizes are drawn from {0.5, 1, 2, 8, 20}
/// MB, attaching each new block to a uniformly random existing block.
RandomChainCase random_tree(Rng& rng, std::size_t blocks) {
  RandomChainCase result;
  const ByteSize sizes[] = {kMB / 2, kMB, 2 * kMB, 8 * kMB, 20 * kMB};
  for (std::size_t i = 0; i < blocks; ++i) {
    const auto parent = static_cast<BlockId>(
        rng.next_below(result.tree.size()));
    const ByteSize size = sizes[rng.next_below(5)];
    result.blocks.push_back(result.tree.add_block(parent, size, 0));
  }
  return result;
}

BuParams random_params(Rng& rng) {
  BuParams params;
  const ByteSize ebs[] = {kMB, 2 * kMB, 8 * kMB};
  params.eb = ebs[rng.next_below(3)];
  params.ad = 1 + static_cast<Height>(rng.next_below(6));
  params.gate_period = 2 + static_cast<Height>(rng.next_below(10));
  params.sticky_gate = rng.next_bernoulli(0.7);
  return params;
}

class ChainProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainProperties, AppendingNonExcessiveKeepsAcceptable) {
  // Monotonicity of the Rizun rule: extending an acceptable chain with a
  // non-excessive block keeps it acceptable (unlike the source-code rule,
  // whose counterexample lives in chain_test.cpp).
  Rng rng(GetParam());
  RandomChainCase c = random_tree(rng, 40);
  const BuNodeRule rule(random_params(rng));
  for (const BlockId id : c.blocks) {
    if (rule.evaluate(c.tree, id).verdict != ChainVerdict::kAcceptable) {
      continue;
    }
    const BlockId extended = c.tree.add_block(id, kMB / 2, 1);
    EXPECT_EQ(rule.evaluate(c.tree, extended).verdict,
              ChainVerdict::kAcceptable);
  }
}

TEST_P(ChainProperties, PendingChainsBecomeAcceptableWithDepth) {
  // Liveness: any pending chain turns acceptable after enough blocks are
  // mined on top (pending_blocks_needed is truthful).
  Rng rng(GetParam() ^ 0xFEED);
  RandomChainCase c = random_tree(rng, 30);
  const BuNodeRule rule(random_params(rng));
  for (const BlockId id : c.blocks) {
    const ChainStatus status = rule.evaluate(c.tree, id);
    if (status.verdict != ChainVerdict::kPendingDepth) {
      continue;
    }
    BlockId tip = id;
    for (Height i = 0; i + 1 < status.pending_blocks_needed; ++i) {
      tip = c.tree.add_block(tip, kMB / 2, 1);
      const ChainStatus mid = rule.evaluate(c.tree, tip);
      ASSERT_EQ(mid.verdict, ChainVerdict::kPendingDepth);
      EXPECT_EQ(*mid.pending_block, *status.pending_block);
    }
    tip = c.tree.add_block(tip, kMB / 2, 1);
    // Exactly pending_blocks_needed additional blocks resolve the *first*
    // pending excessive block. The chain is then acceptable unless a later
    // excessive block (not covered by an open gate) starts its own window.
    const ChainStatus after = rule.evaluate(c.tree, tip);
    if (after.verdict == ChainVerdict::kPendingDepth) {
      ASSERT_TRUE(after.pending_block.has_value());
      EXPECT_GT(c.tree.block(*after.pending_block).height,
                c.tree.block(*status.pending_block).height);
    } else {
      EXPECT_EQ(after.verdict, ChainVerdict::kAcceptable);
    }
  }
}

TEST_P(ChainProperties, EqualParametersImplyEqualVerdicts) {
  // Restoring a prescribed BVC: nodes with identical parameters agree on
  // every chain — BU's divergence comes only from parameter choice.
  Rng rng(GetParam() ^ 0xB0C);
  RandomChainCase c = random_tree(rng, 50);
  const BuParams params = random_params(rng);
  const BuNodeRule node_a(params);
  const BuNodeRule node_b(params);
  for (const BlockId id : c.blocks) {
    EXPECT_EQ(node_a.evaluate(c.tree, id).verdict,
              node_b.evaluate(c.tree, id).verdict);
  }
}

TEST_P(ChainProperties, WithoutGateLargerEbAcceptsWheneverSmallerDoes) {
  // Without the sticky gate, verdicts are monotone in EB: every block the
  // large-EB node deems excessive is also excessive for the small-EB node,
  // so any depth that satisfies the small node satisfies the large one.
  Rng rng(GetParam() ^ 0x7777);
  RandomChainCase c = random_tree(rng, 50);
  BuParams small = random_params(rng);
  small.eb = kMB;
  small.sticky_gate = false;
  BuParams large = small;
  large.eb = 8 * kMB;
  const BuNodeRule small_node(small);
  const BuNodeRule large_node(large);
  for (const BlockId id : c.blocks) {
    if (small_node.evaluate(c.tree, id).verdict ==
        ChainVerdict::kAcceptable) {
      EXPECT_EQ(large_node.evaluate(c.tree, id).verdict,
                ChainVerdict::kAcceptable);
    }
  }
}

TEST(ChainCounterexamples, StickyGateBreaksEbMonotonicity) {
  // With sticky gates, raising EB can make a node REJECT a chain that a
  // stricter node accepts: the strict node's gate opened at a mid-size
  // block and waved the giant one through, while the lenient node never
  // opened a gate and now pends on the giant block. Found by the random
  // sweep above; pinned here as a named counterexample — one more way BU
  // nodes with "compatible-looking" parameters end up on different chains.
  BuParams small;
  small.eb = kMB;
  small.ad = 3;
  BuParams large = small;
  large.eb = 8 * kMB;
  const BuNodeRule small_node(small);
  const BuNodeRule large_node(large);

  BlockTree tree;
  BlockId tip = tree.add_block(tree.genesis(), 2 * kMB, 0);  // gate seed
  tip = tree.add_block(tip, kMB, 0);
  tip = tree.add_block(tip, kMB, 0);   // small node: depth 3 -> gate opens
  tip = tree.add_block(tip, 20 * kMB, 0);  // giant block

  EXPECT_EQ(small_node.evaluate(tree, tip).verdict,
            ChainVerdict::kAcceptable);  // gate open: 20 MB accepted
  EXPECT_EQ(large_node.evaluate(tree, tip).verdict,
            ChainVerdict::kPendingDepth);  // no gate: 20 MB pends
}

TEST_P(ChainProperties, GateCarryMatchesFullEvaluation) {
  // Re-rooting correctness: evaluating a suffix with the carried GateState
  // must agree (verdict and gate) with evaluating the whole chain.
  Rng rng(GetParam() ^ 0xCAFE);
  const BuParams params = random_params(rng);
  const BuNodeRule rule(params);

  // Build one linear chain; split it at a random acceptable midpoint.
  BlockTree whole;
  std::vector<ByteSize> sizes;
  const ByteSize choices[] = {kMB / 2, kMB, 2 * kMB, 8 * kMB};
  BlockId tip = whole.genesis();
  for (int i = 0; i < 40; ++i) {
    const ByteSize size = choices[rng.next_below(4)];
    sizes.push_back(size);
    tip = whole.add_block(tip, size, 0);
  }
  const ChainStatus full = rule.evaluate(whole, tip);

  for (std::size_t split = 1; split < sizes.size(); ++split) {
    // The prefix must itself be acceptable for the carried state to be
    // meaningful (a node re-roots only at agreement points).
    const BlockId prefix_tip = whole.ancestor_at_height(
        tip, static_cast<Height>(split));
    const ChainStatus prefix = rule.evaluate(whole, prefix_tip);
    if (prefix.verdict != ChainVerdict::kAcceptable) {
      continue;
    }
    BlockTree suffix;
    BlockId suffix_tip = suffix.genesis();
    for (std::size_t i = split; i < sizes.size(); ++i) {
      suffix_tip = suffix.add_block(suffix_tip, sizes[i], 0);
    }
    const ChainStatus carried =
        rule.evaluate(suffix, suffix_tip, prefix.gate);
    EXPECT_EQ(carried.verdict, full.verdict) << "split at " << split;
    if (full.verdict == ChainVerdict::kAcceptable) {
      EXPECT_EQ(carried.gate_open, full.gate_open) << "split at " << split;
      if (full.gate_open) {
        EXPECT_EQ(carried.blocks_until_gate_close,
                  full.blocks_until_gate_close);
      }
    }
  }
}

TEST_P(ChainProperties, BitcoinIsBuWithEqualEbAndInfiniteAd) {
  // A Bitcoin node is a BU node whose EB equals the consensus limit and
  // whose AD is unreachable: verdicts agree on every chain (pending ==
  // invalid for selection purposes).
  Rng rng(GetParam() ^ 0xB17C);
  RandomChainCase c = random_tree(rng, 50);
  const BitcoinValidity bitcoin(kMB);
  BuParams params;
  params.eb = kMB;
  params.ad = 64;  // deeper than any chain in this test
  params.sticky_gate = false;
  const BuNodeRule bu(params);
  for (const BlockId id : c.blocks) {
    const bool bitcoin_ok = bitcoin.chain_acceptable(c.tree, id);
    const bool bu_ok = bu.chain_acceptable(c.tree, id);
    EXPECT_EQ(bitcoin_ok, bu_ok);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ChainProperties,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{16}));

}  // namespace
