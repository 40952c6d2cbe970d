// Continuous-time, event-driven simulation of a BU mining network with
// size-dependent block propagation, lowered onto sim::EventEngine.
//
// Mining is a Poisson process over the total hash rate (the next block is
// found after an exponential interval and attributed to a miner by power).
// Two propagation modes share one event loop:
//
//   * direct (config.topology empty): a freshly found block is known to its
//     miner immediately and reaches every other miner after
//     latency + size / bandwidth seconds (per-miner link parameters) — the
//     classic all-to-all model used by the paper-facing benches;
//   * multi-hop relay (config.topology set): miners sit on a generated
//     graph (sim/topology.hpp) among relay-only nodes, and a block gossips
//     hop by hop — each node forwards a block to its neighbors the first
//     time it learns it, with store-and-forward delay
//     link.latency + wire_bytes / link.bandwidth per hop. The compact-relay
//     toggle (RelayPolicy) models thin/expedited-style propagation by
//     shrinking wire_bytes to overhead + fraction * size.
//
// Validity is per node (EB/AD/sticky gate): each node keeps only its tip
// and evaluates chains through a BuPrefixMemo shared by every node with an
// equal rule, and one bitmap row per block records which nodes know it.
// Ties go to the first-seen block — so both *natural* forks (propagation
// races) and *validity* forks (EB disagreements) emerge.
//
// This is the substrate behind the paper's block-size discussions: larger
// blocks travel longer, get orphaned more often (Sect. 2.3, Rizun's fee
// market; Sect. 6.4, Croman et al.), which is what gives each miner a
// maximum profitable block size in the first place (Assumption 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/block_tree.hpp"
#include "chain/bu_validity.hpp"
#include "robust/fault_plan.hpp"
#include "robust/run_control.hpp"
#include "sim/node_view.hpp"
#include "sim/timeline.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace bvc::sim {

struct NetMiner {
  std::string name;
  double power = 0.0;              ///< share of the total hash rate
  chain::BuParams rule;            ///< validity parameters
  chain::ByteSize block_size = chain::kBitcoinBlockLimit;  ///< MG it mines
  /// Direct-mode link model: a block of size S reaches this node
  /// S / bandwidth + latency seconds after publication. Ignored (per-link
  /// parameters apply instead) when a topology is set.
  double bandwidth = 1e6;  ///< bytes per second
  double latency = 1.0;    ///< seconds
};

/// Compact-relay toggle: with `compact` set, a relayed block of size S puts
/// only overhead_bytes + fraction * S on the wire (thin/expedited blocks
/// reconstruct the body from the mempool), turning propagation delay mostly
/// latency-bound. Applies to every hop, in both propagation modes.
struct RelayPolicy {
  bool compact = false;
  double overhead_bytes = 20'000.0;  ///< header + shortid floor
  double fraction = 0.02;            ///< body bytes still transferred
};

struct NetworkConfig {
  std::vector<NetMiner> miners;
  double block_interval = 600.0;  ///< mean seconds between blocks
  /// Degraded-network conditions (message loss, jitter, crashes,
  /// partitions). The default plan is empty: no faults, and the simulation
  /// is bit-identical to one run without any fault machinery. Fault
  /// decisions are drawn from the plan's own seeded stream, never from the
  /// caller's Rng. Node indices refer to miners in direct mode and to
  /// topology nodes in relay mode. Validated at construction.
  robust::FaultPlan faults;
  /// Multi-hop relay graph; empty = direct all-to-all delivery.
  Topology topology;
  /// Where each miner sits in the topology (miner i at node miner_nodes[i];
  /// empty = miner i at node i). All other nodes relay with `relay_rule`.
  std::vector<std::uint32_t> miner_nodes;
  /// Validity parameters of relay-only (non-miner) topology nodes.
  chain::BuParams relay_rule;
  RelayPolicy relay;

  /// BVC_REQUIREs every field is well-formed, with per-field messages
  /// (FaultPlan-style): non-empty miners with positive power / bandwidth /
  /// latency each, powers summing to 1, a positive block interval, a valid
  /// fault plan, and — in relay mode — a valid topology with distinct,
  /// in-range miner placements.
  void validate() const;
};

struct NetworkResult {
  std::uint64_t blocks_mined = 0;
  /// Simulated seconds: on a full drain, the latest arrival of any copy
  /// (redundant copies that were never queued included); on a stopped run,
  /// the time of the last dispatched event.
  double duration = 0.0;
  /// Canonical chain at the end: the tip backed by the largest power
  /// coalition (deepest tip on ties).
  std::uint64_t canonical_length = 0;
  std::uint64_t orphaned_blocks = 0;
  std::vector<std::uint64_t> mined_per_miner;
  std::vector<std::uint64_t> locked_per_miner;
  std::vector<std::uint64_t> orphaned_per_miner;
  /// kConverged when the requested block count was mined and drained;
  /// kBudgetExhausted/kCancelled when stopped early (all counters cover the
  /// simulated prefix).
  robust::RunStatus status = robust::RunStatus::kConverged;
  // Fault-injection accounting (all zero under an empty plan).
  std::uint64_t dropped_messages = 0;
  std::uint64_t duplicated_messages = 0;
  std::uint64_t deferred_deliveries = 0;  ///< crash/partition deferrals
  std::uint64_t wasted_finds = 0;         ///< blocks found by crashed miners
  /// Gossip copies forwarded node-to-node (zero in direct mode).
  std::uint64_t relayed_messages = 0;

  [[nodiscard]] friend bool operator==(const NetworkResult&,
                                       const NetworkResult&) = default;

  [[nodiscard]] double orphan_rate() const noexcept {
    return blocks_mined == 0
               ? 0.0
               : static_cast<double>(orphaned_blocks) /
                     static_cast<double>(blocks_mined);
  }
  /// Orphan rate of one miner's own blocks.
  [[nodiscard]] double orphan_rate(std::size_t miner) const noexcept {
    const auto mined = static_cast<double>(mined_per_miner[miner]);
    return mined == 0.0 ? 0.0 : orphaned_per_miner[miner] / mined;
  }
};

class NetworkSimulation {
 public:
  explicit NetworkSimulation(NetworkConfig config);

  /// Simulates until `blocks` blocks have been found, then drains all
  /// in-flight deliveries and computes the final accounting. One guard tick
  /// per dispatched event (find or delivery). A copy that lands after an
  /// earlier queued copy of the same block, at a node that knows the
  /// block's parent, is counted and recorded but never queued, so it takes
  /// no tick. On budget exhaustion / cancellation the accounting covers
  /// whatever was simulated, with the status set.
  ///
  /// A non-null `timeline` records every find / relay flight / acceptance
  /// / fork switch on the SIMULATED clock (see sim/timeline.hpp) without
  /// perturbing the run: no extra RNG draws, identical results.
  ///
  /// const so concurrent replicas (sim::run_replicas) can share one
  /// simulation object: a run touches only its own local state.
  [[nodiscard]] NetworkResult run(std::uint64_t blocks, Rng& rng,
                                  const robust::RunControl& control = {},
                                  Timeline* timeline = nullptr) const;

 private:
  NetworkConfig config_;
};

}  // namespace bvc::sim
