#include <gtest/gtest.h>

#include <vector>

#include "chain/bitcoin_validity.hpp"
#include "chain/block_tree.hpp"
#include "chain/bu_validity.hpp"

namespace {

using namespace bvc::chain;

constexpr ByteSize kMB = kMegabyte;

/// Appends a linear chain of `sizes` on `parent`, returning the new tip.
BlockId extend(BlockTree& tree, BlockId parent,
               const std::vector<ByteSize>& sizes, MinerId miner = 0) {
  BlockId tip = parent;
  for (const ByteSize size : sizes) {
    tip = tree.add_block(tip, size, miner);
  }
  return tip;
}

// -------------------------------------------------------------- BlockTree --

TEST(BlockTree, GenesisOnly) {
  BlockTree tree;
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.block(tree.genesis()).height, 0u);
  EXPECT_EQ(tree.block(tree.genesis()).parent, kNoBlock);
}

TEST(BlockTree, HeightsFollowParents) {
  BlockTree tree;
  const BlockId a = tree.add_block(tree.genesis(), kMB, 1);
  const BlockId b = tree.add_block(a, kMB, 2);
  EXPECT_EQ(tree.block(a).height, 1u);
  EXPECT_EQ(tree.block(b).height, 2u);
  EXPECT_EQ(tree.block(b).parent, a);
  EXPECT_EQ(tree.block(b).miner, 2);
}

TEST(BlockTree, RejectsUnknownParent) {
  BlockTree tree;
  EXPECT_THROW((void)tree.add_block(42, kMB, 0), std::invalid_argument);
}

TEST(BlockTree, AncestorAtHeight) {
  BlockTree tree;
  const BlockId tip = extend(tree, tree.genesis(), {kMB, kMB, kMB, kMB});
  EXPECT_EQ(tree.block(tree.ancestor_at_height(tip, 2)).height, 2u);
  EXPECT_EQ(tree.ancestor_at_height(tip, 0), tree.genesis());
  EXPECT_EQ(tree.ancestor_at_height(tip, 4), tip);
  EXPECT_THROW((void)tree.ancestor_at_height(tree.genesis(), 1),
               std::invalid_argument);
}

TEST(BlockTree, PathFromGenesis) {
  BlockTree tree;
  const BlockId a = tree.add_block(tree.genesis(), kMB, 0);
  const BlockId b = tree.add_block(a, kMB, 0);
  const std::vector<BlockId> path = tree.path_from_genesis(b);
  EXPECT_EQ(path, (std::vector<BlockId>{tree.genesis(), a, b}));
}

// ------------------------------------------------------- BitcoinValidity --

TEST(BitcoinValidity, EnforcesSizeLimit) {
  BitcoinValidity rule(1 * kMB);
  BlockTree tree;
  const BlockId ok = tree.add_block(tree.genesis(), kMB, 0);
  const BlockId big = tree.add_block(ok, kMB + 1, 0);
  EXPECT_TRUE(rule.chain_acceptable(tree, ok));
  EXPECT_FALSE(rule.chain_acceptable(tree, big));
}

TEST(BitcoinValidity, InvalidBlockPoisonsDescendants) {
  BitcoinValidity rule(1 * kMB);
  BlockTree tree;
  const BlockId big = tree.add_block(tree.genesis(), 2 * kMB, 0);
  const BlockId child = extend(tree, big, {kMB, kMB, kMB, kMB, kMB, kMB});
  // Unlike BU, no amount of depth legitimizes an oversized block.
  EXPECT_FALSE(rule.chain_acceptable(tree, child));
}

TEST(BitcoinValidity, SameVerdictForEveryNode) {
  // The point of a prescribed BVC: two nodes with the same consensus rule
  // can never disagree.
  BitcoinValidity node_a(1 * kMB);
  BitcoinValidity node_b(1 * kMB);
  BlockTree tree;
  const BlockId tip = extend(tree, tree.genesis(), {kMB, kMB / 2, kMB});
  EXPECT_EQ(node_a.chain_acceptable(tree, tip),
            node_b.chain_acceptable(tree, tip));
}

// ------------------------------------------------------------ BuNodeRule --

BuParams params_with(ByteSize eb, Height ad, bool sticky = true,
                     Height gate_period = kDefaultGatePeriod) {
  BuParams params;
  params.eb = eb;
  params.ad = ad;
  params.sticky_gate = sticky;
  params.gate_period = gate_period;
  return params;
}

TEST(BuNodeRule, AcceptsNonExcessiveChain) {
  BuNodeRule rule(params_with(1 * kMB, 3));
  BlockTree tree;
  const BlockId tip = extend(tree, tree.genesis(), {kMB, kMB, kMB});
  const ChainStatus status = rule.evaluate(tree, tip);
  EXPECT_EQ(status.verdict, ChainVerdict::kAcceptable);
  EXPECT_FALSE(status.gate_open);
}

TEST(BuNodeRule, BlockOfSizeExactlyEbIsNotExcessive) {
  // "As a block with the exact size EB is not an excessive block" (2.2).
  BuNodeRule rule(params_with(8 * kMB, 3));
  BlockTree tree;
  const BlockId tip = tree.add_block(tree.genesis(), 8 * kMB, 0);
  EXPECT_FALSE(rule.is_excessive(tree.block(tip)));
  EXPECT_EQ(rule.evaluate(tree, tip).verdict, ChainVerdict::kAcceptable);
}

TEST(BuNodeRule, ExcessiveBlockPendsUntilAcceptanceDepth) {
  // Figure 1, top: with AD = 3, an excessive block and one block on top are
  // still rejected; with two on top the chain is accepted.
  BuNodeRule rule(params_with(1 * kMB, 3));
  BlockTree tree;
  const BlockId excessive = tree.add_block(tree.genesis(), 2 * kMB, 0);
  EXPECT_EQ(rule.evaluate(tree, excessive).verdict,
            ChainVerdict::kPendingDepth);

  const BlockId one_on_top = tree.add_block(excessive, kMB, 0);
  const ChainStatus pending = rule.evaluate(tree, one_on_top);
  EXPECT_EQ(pending.verdict, ChainVerdict::kPendingDepth);
  ASSERT_TRUE(pending.pending_block.has_value());
  EXPECT_EQ(*pending.pending_block, excessive);
  EXPECT_EQ(pending.pending_blocks_needed, 1u);

  const BlockId two_on_top = tree.add_block(one_on_top, kMB, 0);
  EXPECT_EQ(rule.evaluate(tree, two_on_top).verdict,
            ChainVerdict::kAcceptable);
}

TEST(BuNodeRule, AcceptanceDepthCountsTheExcessiveBlockItself) {
  BuNodeRule rule(params_with(1 * kMB, 1));
  BlockTree tree;
  const BlockId excessive = tree.add_block(tree.genesis(), 2 * kMB, 0);
  // AD = 1: the block alone already forms a chain of length AD.
  EXPECT_EQ(rule.evaluate(tree, excessive).verdict,
            ChainVerdict::kAcceptable);
}

TEST(BuNodeRule, GateOpensOnAcceptance) {
  // Figure 1, middle: once the excessive block is accepted, the sticky gate
  // opens and the size limit on that chain becomes the 32 MB message limit.
  BuNodeRule rule(params_with(1 * kMB, 3));
  BlockTree tree;
  const BlockId tip = extend(tree, tree.genesis(), {2 * kMB, kMB, kMB});
  const ChainStatus status = rule.evaluate(tree, tip);
  EXPECT_EQ(status.verdict, ChainVerdict::kAcceptable);
  EXPECT_TRUE(status.gate_open);

  // A 20 MB block is now accepted instantly on this chain.
  const BlockId giant = tree.add_block(tip, 20 * kMB, 0);
  EXPECT_EQ(rule.evaluate(tree, giant).verdict, ChainVerdict::kAcceptable);
}

TEST(BuNodeRule, MessageLimitStillApplies) {
  BuNodeRule rule(params_with(1 * kMB, 3));
  BlockTree tree;
  const BlockId tip = extend(tree, tree.genesis(), {2 * kMB, kMB, kMB});
  const BlockId way_too_big = tree.add_block(tip, kMessageLimit + 1, 0);
  EXPECT_EQ(rule.evaluate(tree, way_too_big).verdict, ChainVerdict::kInvalid);
  // And depth cannot cure it.
  const BlockId deep = extend(tree, way_too_big, {kMB, kMB, kMB, kMB});
  EXPECT_EQ(rule.evaluate(tree, deep).verdict, ChainVerdict::kInvalid);
}

TEST(BuNodeRule, GateClosesAfterConsecutiveNonExcessiveBlocks) {
  // Figure 1, bottom: the gate closes after `gate_period` consecutive
  // non-excessive blocks (using a short period to keep the test readable).
  BuNodeRule rule(params_with(1 * kMB, 3, true, 5));
  BlockTree tree;
  BlockId tip = extend(tree, tree.genesis(), {2 * kMB, kMB, kMB});
  EXPECT_TRUE(rule.evaluate(tree, tip).gate_open);

  // Two non-excessive blocks already count (run = 2): three more close it.
  tip = extend(tree, tip, {kMB, kMB, kMB});
  const ChainStatus closed = rule.evaluate(tree, tip);
  EXPECT_EQ(closed.verdict, ChainVerdict::kAcceptable);
  EXPECT_FALSE(closed.gate_open);

  // With the gate closed, a new excessive block pends again.
  const BlockId late = tree.add_block(tip, 2 * kMB, 0);
  EXPECT_EQ(rule.evaluate(tree, late).verdict, ChainVerdict::kPendingDepth);
}

TEST(BuNodeRule, ExcessiveBlockUnderOpenGateResetsTheRun) {
  BuNodeRule rule(params_with(1 * kMB, 3, true, 4));
  BlockTree tree;
  // Open the gate, then alternate: the run must restart at each excessive
  // block, keeping the gate open past the nominal period.
  BlockId tip = extend(tree, tree.genesis(), {2 * kMB, kMB, kMB});
  tip = extend(tree, tip, {kMB, 2 * kMB, kMB, kMB, kMB});
  const ChainStatus status = rule.evaluate(tree, tip);
  EXPECT_EQ(status.verdict, ChainVerdict::kAcceptable);
  EXPECT_TRUE(status.gate_open);
  EXPECT_EQ(status.blocks_until_gate_close, 1u);
}

TEST(BuNodeRule, WithoutStickyGateEachExcessiveBlockNeedsItsOwnDepth) {
  // BUIP038 (setting 1): acceptance no longer opens a gate.
  BuNodeRule rule(params_with(1 * kMB, 3, /*sticky=*/false));
  BlockTree tree;
  BlockId tip = extend(tree, tree.genesis(), {2 * kMB, kMB, kMB});
  EXPECT_EQ(rule.evaluate(tree, tip).verdict, ChainVerdict::kAcceptable);
  EXPECT_FALSE(rule.evaluate(tree, tip).gate_open);

  const BlockId second = tree.add_block(tip, 2 * kMB, 0);
  EXPECT_EQ(rule.evaluate(tree, second).verdict, ChainVerdict::kPendingDepth);
}

TEST(BuNodeRule, NestedExcessiveBlocksAcceptedTogether) {
  // Two excessive blocks in the pending window: once the first gains AD
  // depth, the gate opens retroactively and covers the second.
  BuNodeRule rule(params_with(1 * kMB, 4));
  BlockTree tree;
  const BlockId tip =
      extend(tree, tree.genesis(), {2 * kMB, 3 * kMB, kMB, kMB});
  const ChainStatus status = rule.evaluate(tree, tip);
  EXPECT_EQ(status.verdict, ChainVerdict::kAcceptable);
  EXPECT_TRUE(status.gate_open);
}

TEST(BuNodeRule, InitialGateStateCarriesAcrossReroot) {
  BuNodeRule rule(params_with(1 * kMB, 3, true, 10));
  BlockTree tree;
  const BlockId tip = extend(tree, tree.genesis(), {20 * kMB});
  // Without carry-over, a 20 MB block pends; with an open gate it passes.
  EXPECT_EQ(rule.evaluate(tree, tip).verdict, ChainVerdict::kPendingDepth);
  const GateState open{true, 4};
  EXPECT_EQ(rule.evaluate(tree, tip, open).verdict,
            ChainVerdict::kAcceptable);
  const ChainStatus status = rule.evaluate(tree, tip, open);
  EXPECT_TRUE(status.gate_open);
  EXPECT_EQ(status.gate.run, 0u);  // the excessive block reset the run
}

TEST(BuNodeRule, DifferentEbsDisagreeOnTheSameChain) {
  // The crux of the paper: without a prescribed BVC, two compliant nodes
  // reach opposite verdicts about the same chain.
  BuNodeRule bob(params_with(1 * kMB, 6));
  BuNodeRule carol(params_with(8 * kMB, 6));
  BlockTree tree;
  const BlockId tip = tree.add_block(tree.genesis(), 8 * kMB, 0);
  EXPECT_EQ(bob.evaluate(tree, tip).verdict, ChainVerdict::kPendingDepth);
  EXPECT_EQ(carol.evaluate(tree, tip).verdict, ChainVerdict::kAcceptable);
}

TEST(BuNodeRule, RejectsBadParams) {
  EXPECT_THROW(BuNodeRule{params_with(0, 3)}, std::invalid_argument);
  EXPECT_THROW(BuNodeRule{params_with(kMB, 0)}, std::invalid_argument);
  BuParams bad = params_with(kMB, 3);
  bad.message_limit = kMB / 2;  // below EB
  EXPECT_THROW(BuNodeRule{bad}, std::invalid_argument);
}

// ------------------------------------------------------ BuSourceCodeRule --

TEST(BuSourceCodeRule, LatestAdNonExcessiveIsAcceptable) {
  BuSourceCodeRule rule(BuParams{kMB, kMB, 3, true, 144, kMessageLimit});
  BlockTree tree;
  const BlockId tip =
      extend(tree, tree.genesis(), {2 * kMB, kMB, kMB, kMB});
  EXPECT_TRUE(rule.chain_acceptable(tree, tip));
}

TEST(BuSourceCodeRule, PaperEdgeCaseValidThenInvalidated) {
  // Sect. 2.2: a chain whose only excessive blocks sit at heights h and
  // h - AD - 143 is valid, but adding one more block invalidates it.
  const Height ad = 6;
  const Height period = 144;
  BuParams params;
  params.eb = kMB;
  params.ad = ad;
  params.gate_period = period;
  BuSourceCodeRule rule(params);

  BlockTree tree;
  // Deep excessive block at height 1, non-excessive filler up to height
  // h - 1, then the second excessive block at h = 1 + AD + (period - 1), so
  // that the deep one sits exactly at h - AD - 143.
  BlockId tip = tree.add_block(tree.genesis(), 2 * kMB, 0);  // height 1
  for (Height i = 0; i < ad + period - 2; ++i) {
    tip = tree.add_block(tip, kMB, 0);
  }
  tip = tree.add_block(tip, 2 * kMB, 0);  // height h
  EXPECT_TRUE(rule.chain_acceptable(tree, tip));

  const BlockId extended = tree.add_block(tip, kMB, 0);
  EXPECT_FALSE(rule.chain_acceptable(tree, extended));
}

TEST(BuSourceCodeRule, DisagreesWithRizunDescription) {
  // The documented inconsistency: the Rizun rule (BuNodeRule) is monotone in
  // the sense that appending a non-excessive block to an acceptable chain
  // keeps it acceptable; the source-code rule is not. Reuse the edge case.
  const Height ad = 6;
  BuParams params;
  params.eb = kMB;
  params.ad = ad;
  BuSourceCodeRule source(params);
  BuNodeRule rizun(params);

  BlockTree tree;
  BlockId tip = tree.add_block(tree.genesis(), 2 * kMB, 0);
  for (Height i = 0; i < ad + params.gate_period - 2; ++i) {
    tip = tree.add_block(tip, kMB, 0);
  }
  tip = tree.add_block(tip, 2 * kMB, 0);
  const BlockId extended = tree.add_block(tip, kMB, 0);

  // The source-code rule accepts the fresh excessive tip instantly, then
  // flips to invalid when a block is appended (non-monotone). Rizun's rule
  // is consistent: the tip's gate closed 5 blocks earlier (144 consecutive
  // non-excessive blocks), so the new excessive block pends in both cases.
  EXPECT_TRUE(source.chain_acceptable(tree, tip));
  EXPECT_FALSE(source.chain_acceptable(tree, extended));
  EXPECT_EQ(rizun.evaluate(tree, tip).verdict, ChainVerdict::kPendingDepth);
  EXPECT_EQ(rizun.evaluate(tree, extended).verdict,
            ChainVerdict::kPendingDepth);
}

}  // namespace
