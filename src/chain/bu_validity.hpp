// Bitcoin Unlimited's per-node block acceptance rules (Sect. 2.2).
//
// Each node chooses three local parameters:
//   MG — maximum generation size: largest block the node will *mine*;
//   EB — largest block size the node considers valid outright; a block with
//        size > EB is an "excessive block";
//   AD — excessive acceptance depth: an excessive block becomes acceptable
//        once a chain of AD blocks (starting from and including the excessive
//        block itself) has been built on it.
//
// Because EB is local, a block can be valid for one node and excessive for
// another — BU has no prescribed block validity consensus. Two rule variants
// are provided:
//
//  * BuNodeRule — Rizun's description, which the paper adopts: accepting an
//    excessive block opens a per-chain "sticky gate" under which the only
//    size bound is the 32 MB network message limit; the gate closes after
//    144 consecutive non-excessive blocks on that chain.
//
//  * BuSourceCodeRule — the March 2017 source-code behaviour the paper
//    documents as inconsistent with Rizun's description, including its
//    counter-intuitive non-monotonic edge case (a valid chain can become
//    invalid by appending a block). Provided for completeness and tests; the
//    MDP analysis uses BuNodeRule, as the paper does.
#pragma once

#include <optional>

#include "chain/block_tree.hpp"
#include "chain/types.hpp"

namespace bvc::chain {

struct BuParams {
  ByteSize mg = kBitcoinBlockLimit;  ///< maximum generation size
  ByteSize eb = kBitcoinBlockLimit;  ///< excessive block size threshold
  Height ad = 6;                     ///< excessive acceptance depth (>= 1)
  bool sticky_gate = true;           ///< false models BUIP038 (gate removed)
  Height gate_period = kDefaultGatePeriod;  ///< non-excessive run that closes
                                            ///< the gate
  ByteSize message_limit = kMessageLimit;   ///< absolute network message cap

  [[nodiscard]] bool operator==(const BuParams&) const = default;
};

/// Outcome of evaluating a whole chain against a node's rule.
enum class ChainVerdict {
  kAcceptable,    ///< the node accepts this chain as a blockchain candidate
  kPendingDepth,  ///< contains an excessive block that lacks AD depth so far
  kInvalid,       ///< contains a block above the message limit
};

/// Sticky-gate state carried across chain evaluation. Long-running
/// simulations re-root their block trees at agreement points and thread the
/// gate state through explicitly.
struct GateState {
  bool open = false;
  Height run = 0;  ///< consecutive non-excessive blocks since the gate opened

  [[nodiscard]] bool operator==(const GateState&) const = default;
};

/// Full evaluation result, including sticky-gate introspection at the tip.
struct ChainStatus {
  ChainVerdict verdict = ChainVerdict::kAcceptable;
  /// Whether the sticky gate is open after processing the whole chain.
  bool gate_open = false;
  /// When the gate is open: how many more consecutive non-excessive blocks
  /// would close it.
  Height blocks_until_gate_close = 0;
  /// Raw gate state at the tip, suitable for re-rooted re-evaluation.
  GateState gate;
  /// When verdict == kPendingDepth: the first excessive block still waiting,
  /// and how many more blocks on top of the tip it needs.
  std::optional<BlockId> pending_block;
  Height pending_blocks_needed = 0;
};

class BuNodeRule {
 public:
  explicit BuNodeRule(BuParams params);

  [[nodiscard]] const BuParams& params() const noexcept { return params_; }

  /// Whether the node treats a single block as excessive (size > EB).
  [[nodiscard]] bool is_excessive(const Block& block) const noexcept {
    return block.size > params_.eb;
  }

  /// Evaluates the chain from genesis to `tip` under Rizun's semantics.
  /// `initial` is the sticky-gate state at genesis (for re-rooted trees).
  [[nodiscard]] ChainStatus evaluate(const BlockTree& tree, BlockId tip,
                                     const GateState& initial = {}) const;

  /// Shorthand: verdict == kAcceptable.
  [[nodiscard]] bool chain_acceptable(const BlockTree& tree,
                                      BlockId tip) const {
    return evaluate(tree, tip).verdict == ChainVerdict::kAcceptable;
  }

 private:
  BuParams params_;
};

/// The literal March-2017 source-code acceptance predicate (Sect. 2.2): a
/// chain whose latest block has height h is acceptable iff either
///   (a) the latest AD blocks are all non-excessive, or
///   (b) it contains an excessive block whose height lies in
///       [h - AD - (gate_period - 1), h - AD + 1] inclusive.
/// This reproduces the paper's edge case: a chain with excessive blocks at
/// heights h and h - AD - 143 only is acceptable, yet becomes unacceptable
/// when any block is appended.
class BuSourceCodeRule {
 public:
  explicit BuSourceCodeRule(BuParams params);

  [[nodiscard]] const BuParams& params() const noexcept { return params_; }
  [[nodiscard]] bool is_excessive(const Block& block) const noexcept {
    return block.size > params_.eb;
  }
  [[nodiscard]] bool chain_acceptable(const BlockTree& tree,
                                      BlockId tip) const;

 private:
  BuParams params_;
};

}  // namespace bvc::chain
