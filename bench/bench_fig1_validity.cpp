// Regenerates Figure 1: a BU miner's choice of parent block under the
// excessive-block rules (AD = 3 in the figure).
//
//  (top)    Excessive blocks are rejected while they lack acceptance depth.
//  (middle) Two blocks mined on the excessive block: the chain is accepted
//           as the longest chain and the sticky gate opens — the size limit
//           on that chain becomes the 32 MB message limit.
//  (bottom) After 144 consecutive non-excessive blocks the gate closes.
//
// Output: a per-block trace of one node's verdicts on a growing chain.
#include <cstdio>

#include "bench_common.hpp"
#include "chain/block_tree.hpp"
#include "chain/bu_validity.hpp"
#include "util/table.hpp"

namespace {

using namespace bvc::chain;

const char* verdict_name(ChainVerdict verdict) {
  switch (verdict) {
    case ChainVerdict::kAcceptable:
      return "ACCEPT";
    case ChainVerdict::kPendingDepth:
      return "pending";
    case ChainVerdict::kInvalid:
      return "INVALID";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  // The shared bench flags are accepted (and validated) for CLI uniformity;
  // this trace replay has no iterative loop for the budget to bound.
  bvc::util::ArgParser parser("bench_fig1_validity", "Regenerate Figure 1: BU parent-block choice (AD = 3)");
  bvc::bench::add_standard_bench_args(parser);
  const bvc::util::ParsedArgs args = parser.parse(argc, argv);
  bvc::bench::ObsSession obs(args);
  (void)bvc::bench::run_control_from_args(args);
  (void)bvc::bench::batch_config_from_args(args);

  BuParams params;
  params.eb = 1 * kMegabyte;
  params.ad = 3;             // as in Figure 1
  params.gate_period = 144;  // "closed after 144 consecutive non-excessive"
  const BuNodeRule node(params);

  std::printf(
      "Figure 1 — a BU node's verdicts (EB = 1 MB, AD = 3, gate period "
      "144)\n\n");

  BlockTree tree;
  bvc::TextTable table(
      {"height", "block size", "verdict", "gate", "note"});

  const auto record = [&](BlockId tip, const char* note) {
    const ChainStatus status = node.evaluate(tree, tip);
    std::string gate = "closed";
    if (status.gate_open) {
      gate = "open (closes in " +
             std::to_string(status.blocks_until_gate_close) + ")";
    }
    const Block& block = tree.block(tip);
    table.add_row({std::to_string(block.height),
                   bvc::format_fixed(static_cast<double>(block.size) /
                                         static_cast<double>(kMegabyte),
                                     1) +
                       " MB",
                   verdict_name(status.verdict), gate, note});
  };

  // Top panel: an excessive block appears and pends.
  BlockId tip = tree.add_block(tree.genesis(), kMegabyte, 0);
  record(tip, "ordinary 1 MB block");
  tip = tree.add_block(tip, 2 * kMegabyte, 0);
  record(tip, "excessive: needs a chain of AD=3 on it");
  tip = tree.add_block(tip, kMegabyte, 0);
  record(tip, "depth 2 of 3: still rejected");

  // Middle panel: acceptance depth reached; the sticky gate opens.
  tip = tree.add_block(tip, kMegabyte, 0);
  record(tip, "depth 3: chain accepted, sticky gate OPENS");
  tip = tree.add_block(tip, 20 * kMegabyte, 0);
  record(tip, "20 MB block sails through the open gate");

  // Bottom panel: 144 consecutive non-excessive blocks close the gate.
  for (int i = 0; i < 143; ++i) {
    tip = tree.add_block(tip, kMegabyte, 0);
  }
  record(tip, "143 of 144 non-excessive blocks");
  tip = tree.add_block(tip, kMegabyte, 0);
  record(tip, "144th consecutive: sticky gate CLOSES");
  tip = tree.add_block(tip, 2 * kMegabyte, 0);
  record(tip, "new excessive block pends again");

  std::printf("%s\n", table.to_string().c_str());

  // The same chain seen by a large-EB node is never pending: no prescribed
  // block validity consensus.
  BuParams big = params;
  big.eb = 32 * kMegabyte;
  const BuNodeRule big_node(big);
  std::printf(
      "The same chain under EB = 32 MB: every verdict is %s — two\n"
      "compliant nodes disagree about identical blocks (no BVC).\n",
      verdict_name(big_node.evaluate(tree, tip).verdict));
  return 0;
}
