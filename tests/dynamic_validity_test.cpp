#include <gtest/gtest.h>

#include "chain/block_tree.hpp"
#include "counter/dynamic_validity.hpp"

namespace {

using namespace bvc;
using namespace bvc::counter;
using chain::BlockId;
using chain::BlockTree;

VoteRuleConfig tiny_config() {
  VoteRuleConfig config;
  config.epoch_length = 10;
  config.adjust_threshold = 0.75;
  config.veto_threshold = 0.10;
  config.activation_delay = 3;
  config.step = 500'000;
  config.initial_limit = 1'000'000;
  config.max_limit = 4'000'000;
  return config;
}

TEST(DynamicValidity, EnforcesInitialLimit) {
  DynamicValidity rule(tiny_config());
  BlockTree tree;
  const BlockId ok = tree.add_block(tree.genesis(), 1'000'000, 0);
  EXPECT_TRUE(rule.chain_acceptable(tree, ok));
  const BlockId big = tree.add_block(ok, 1'000'001, 0);
  EXPECT_FALSE(rule.chain_acceptable(tree, big));
}

TEST(DynamicValidity, VotedIncreaseRaisesTheLimitAfterDelay) {
  const VoteRuleConfig config = tiny_config();
  DynamicValidity rule(config);
  BlockTree tree;
  // One epoch of unanimous increase votes.
  BlockId tip = tree.genesis();
  for (unsigned i = 0; i < config.epoch_length; ++i) {
    tip = tree.add_block(tip, 1'000'000, 0);
    rule.set_vote(tip, Vote::kIncrease);
  }
  // The raise activates 3 blocks into the next epoch: a 1.5 MB block is
  // still invalid now...
  const BlockId early = tree.add_block(tip, 1'500'000, 0);
  EXPECT_FALSE(rule.chain_acceptable(tree, early));
  // ...but valid after the activation delay.
  for (unsigned i = 0; i < config.activation_delay; ++i) {
    tip = tree.add_block(tip, 1'000'000, 0);
  }
  EXPECT_EQ(rule.next_limit(tree, tip), 1'500'000u);
  const BlockId late = tree.add_block(tip, 1'500'000, 0);
  EXPECT_TRUE(rule.chain_acceptable(tree, late));
}

TEST(DynamicValidity, EveryNodeAgreesOnEveryBranch) {
  // The prescribed-BVC property at the chain level: two rule instances fed
  // the same votes agree on every block of a forked tree.
  const VoteRuleConfig config = tiny_config();
  DynamicValidity node_a(config);
  DynamicValidity node_b(config);
  BlockTree tree;
  BlockId left = tree.genesis();
  BlockId right = tree.genesis();
  for (int i = 0; i < 30; ++i) {
    left = tree.add_block(left, 900'000, 0);
    right = tree.add_block(right, 1'100'000, 1);
    for (const Vote vote : {Vote::kIncrease, Vote::kAbstain}) {
      node_a.set_vote(left, vote);
      node_b.set_vote(left, vote);
    }
  }
  for (BlockId id = 0; id < tree.size(); ++id) {
    EXPECT_EQ(node_a.chain_acceptable(tree, id),
              node_b.chain_acceptable(tree, id));
  }
}

TEST(DynamicValidity, WorksWithGenericChainSelection) {
  // What a node selecting the longest acceptable chain needs from the rule:
  // an oversized block poisons every descendant, so the longer branch built
  // on it stays unacceptable while the shorter valid one is acceptable.
  DynamicValidity rule(tiny_config());
  BlockTree tree;
  const BlockId valid = [&] {
    BlockId tip = tree.genesis();
    for (int i = 0; i < 3; ++i) {
      tip = tree.add_block(tip, 1'000'000, 0);
    }
    return tip;
  }();
  BlockId invalid = tree.add_block(tree.genesis(), 2'000'000, 1);
  for (int i = 0; i < 5; ++i) {
    invalid = tree.add_block(invalid, 1'000'000, 1);
  }
  EXPECT_TRUE(rule.chain_acceptable(tree, valid));
  EXPECT_FALSE(rule.chain_acceptable(tree, invalid));
}

TEST(DynamicValidity, VotesOnForksCountPerBranch) {
  // Votes are replayed along the evaluated path only: an increase voted on
  // a side branch does not raise the limit of the main branch.
  const VoteRuleConfig config = tiny_config();
  DynamicValidity rule(config);
  BlockTree tree;
  // Side branch votes for the increase...
  BlockId side = tree.genesis();
  for (unsigned i = 0; i < config.epoch_length; ++i) {
    side = tree.add_block(side, 1'000'000, 1);
    rule.set_vote(side, Vote::kIncrease);
  }
  // ...the main branch abstains.
  BlockId main_tip = tree.genesis();
  for (unsigned i = 0; i < config.epoch_length + config.activation_delay;
       ++i) {
    main_tip = tree.add_block(main_tip, 1'000'000, 0);
  }
  EXPECT_EQ(rule.next_limit(tree, main_tip), config.initial_limit);
  for (unsigned i = 0; i < config.activation_delay; ++i) {
    side = tree.add_block(side, 1'000'000, 1);
  }
  EXPECT_EQ(rule.next_limit(tree, side),
            config.initial_limit + config.step);
}

}  // namespace
