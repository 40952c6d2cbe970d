#include "sim/network_sim.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_engine.hpp"
#include "util/check.hpp"

namespace bvc::sim {

namespace {

/// One engine payload. kFind events carry no data (the find is attributed
/// when it dispatches); kDelivery events carry the arriving copy.
struct NetEvent {
  std::uint32_t node = 0;    ///< delivery target
  chain::BlockId block = 0;  ///< delivered block
  std::uint32_t from = 0;    ///< sender, for gossip suppression
};

/// Event classes: a find beats any delivery scheduled for the same instant
/// (the legacy loop's `next_find <= top.time` rule); deliveries fall back
/// to schedule order, which groups them by ascending block id exactly like
/// the legacy heap's (time, block) tie-break.
constexpr std::uint32_t kFind = 0;
constexpr std::uint32_t kDelivery = 1;

/// The earliest queued arrival of a block at a node that has not learned it.
struct InFlight {
  chain::BlockId block = 0;
  double arrival = 0.0;
};

/// Bytes a relayed block puts on the wire under the relay policy.
double wire_bytes(const RelayPolicy& relay, chain::ByteSize size) {
  const auto full = static_cast<double>(size);
  if (!relay.compact) {
    return full;
  }
  return std::min(full, relay.overhead_bytes + relay.fraction * full);
}

}  // namespace

void NetworkConfig::validate() const {
  BVC_REQUIRE(!miners.empty(), "NetworkConfig.miners must be non-empty");
  BVC_REQUIRE(block_interval > 0.0,
              "NetworkConfig.block_interval must be positive");
  double total = 0.0;
  for (std::size_t i = 0; i < miners.size(); ++i) {
    const NetMiner& miner = miners[i];
    const std::string field = "NetworkConfig.miners[" + std::to_string(i) + "]";
    BVC_REQUIRE(miner.power > 0.0, field + ".power must be positive");
    BVC_REQUIRE(miner.block_size <= miner.rule.mg,
                field + ": a compliant miner cannot exceed its own MG");
    BVC_REQUIRE(miner.bandwidth > 0.0, field + ".bandwidth must be positive");
    BVC_REQUIRE(miner.latency > 0.0, field + ".latency must be positive");
    total += miner.power;
  }
  BVC_REQUIRE(std::abs(total - 1.0) < 1e-9,
              "NetworkConfig.miners powers must sum to 1");
  if (relay.compact) {
    BVC_REQUIRE(relay.overhead_bytes >= 0.0,
                "NetworkConfig.relay.overhead_bytes must be non-negative");
    BVC_REQUIRE(relay.fraction >= 0.0 && relay.fraction <= 1.0,
                "NetworkConfig.relay.fraction must be in [0, 1]");
  }
  if (topology.empty()) {
    BVC_REQUIRE(miner_nodes.empty(),
                "NetworkConfig.miner_nodes requires a topology");
    faults.validate(miners.size());
    return;
  }
  topology.validate();
  BVC_REQUIRE(miners.size() <= topology.num_nodes(),
              "NetworkConfig.topology needs at least one node per miner");
  BVC_REQUIRE(miner_nodes.empty() || miner_nodes.size() == miners.size(),
              "NetworkConfig.miner_nodes must be empty or name one node per "
              "miner");
  std::vector<bool> taken(topology.num_nodes(), false);
  for (std::size_t i = 0; i < miner_nodes.size(); ++i) {
    const std::string field =
        "NetworkConfig.miner_nodes[" + std::to_string(i) + "]";
    BVC_REQUIRE(miner_nodes[i] < topology.num_nodes(),
                field + " out of range");
    BVC_REQUIRE(!taken[miner_nodes[i]],
                field + ": miners must sit on distinct nodes");
    taken[miner_nodes[i]] = true;
  }
  faults.validate(topology.num_nodes());
}

NetworkSimulation::NetworkSimulation(NetworkConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

NetworkResult NetworkSimulation::run(std::uint64_t blocks, Rng& rng,
                                     const robust::RunControl& control,
                                     Timeline* timeline) const {
  const std::size_t num_miners = config_.miners.size();
  const bool relay_mode = !config_.topology.empty();
  const std::size_t num_nodes =
      relay_mode ? config_.topology.num_nodes() : num_miners;

  // Where miner i sits: node i in direct mode and by default in relay mode.
  const auto miner_node = [&](std::size_t i) -> std::size_t {
    return config_.miner_nodes.empty() ? i : config_.miner_nodes[i];
  };

  chain::BlockTree tree;
  std::vector<std::size_t> miner_at(num_nodes, num_miners);  // node -> miner
  for (std::size_t i = 0; i < num_miners; ++i) {
    miner_at[miner_node(i)] = i;
  }
  // Each node runs its rule through a prefix-state memo shared by every
  // node with an equal rule, and keeps only its tip.
  std::vector<BuPrefixMemo> memos;
  std::vector<std::size_t> memo_of(num_nodes);
  for (std::size_t node = 0; node < num_nodes; ++node) {
    const chain::BuParams& rule = miner_at[node] < num_miners
                                      ? config_.miners[miner_at[node]].rule
                                      : config_.relay_rule;
    const auto same = std::find_if(
        memos.begin(), memos.end(),
        [&rule](const BuPrefixMemo& memo) { return memo.params() == rule; });
    memo_of[node] = static_cast<std::size_t>(same - memos.begin());
    if (same == memos.end()) {
      memos.emplace_back(tree, rule);
    }
  }
  std::vector<chain::BlockId> tips(num_nodes, tree.genesis());

  // Which nodes know which block: one row of `words` bits per block, every
  // bit of genesis's row set. The rows a gossip step reads sit side by
  // side, whatever the network size.
  const std::size_t words = (num_nodes + 63) / 64;
  std::vector<std::uint64_t> known(words, ~std::uint64_t{0});
  const auto knows = [&](std::size_t node, chain::BlockId block) {
    return (known[block * words + node / 64] >> (node % 64) & 1U) != 0;
  };

  std::vector<double> weights;
  for (const NetMiner& miner : config_.miners) {
    weights.push_back(miner.power);
  }
  CategoricalSampler by_power(weights);

  // Deliveries whose parent has not reached the node yet (out-of-order
  // arrival: a small child can overtake its large parent on a slow link).
  std::vector<std::multimap<chain::BlockId, chain::BlockId>> waiting(
      num_nodes);
  // Per node, the blocks with a copy queued to it that it has not learned
  // yet: a handful at a time, whatever the network size.
  std::vector<std::vector<InFlight>> in_flight(num_nodes);
  const auto find_in_flight = [&](std::size_t node, chain::BlockId block) {
    return std::find_if(
        in_flight[node].begin(), in_flight[node].end(),
        [block](const InFlight& entry) { return entry.block == block; });
  };

  NetworkResult result;
  result.mined_per_miner.assign(num_miners, 0);
  result.locked_per_miner.assign(num_miners, 0);
  result.orphaned_per_miner.assign(num_miners, 0);

  if (timeline != nullptr) {
    for (std::size_t node = 0; node < num_nodes; ++node) {
      const std::size_t who = miner_at[node];
      timeline->set_node_label(
          node, who < num_miners
                    ? "miner " + config_.miners[who].name + " @ node-" +
                          std::to_string(node)
                    : "node-" + std::to_string(node));
    }
  }

  // Delivers `block` and any descendants that were waiting on it, appending
  // every newly learned id to `learned` (relay mode forwards them).
  std::vector<chain::BlockId> ready;  // reused: one allocation per run
  const auto deliver = [&](std::size_t node, chain::BlockId block, double now,
                           std::vector<chain::BlockId>* learned) {
    ready.assign(1, block);
    while (!ready.empty()) {
      const chain::BlockId id = ready.back();
      ready.pop_back();
      if (knows(node, id)) {
        continue;
      }
      const chain::BlockId parent = tree.block(id).parent;
      if (parent != chain::kNoBlock && !knows(node, parent)) {
        waiting[node].emplace(parent, id);
        continue;
      }
      known[id * words + node / 64] |= std::uint64_t{1} << (node % 64);
      const chain::BlockId tip_before = tips[node];
      const bool tip_changed = memos[memo_of[node]].learn(id, tips[node]);
      if (const auto entry = find_in_flight(node, id);
          entry != in_flight[node].end()) {
        *entry = in_flight[node].back();
        in_flight[node].pop_back();
      }
      if (timeline != nullptr) {
        timeline->record_accept(now, node, id);
        // A tip move to anything but a child of the old tip is a reorg:
        // the node abandoned its branch (propagation race or an EB/AD
        // validity fork resolving).
        if (tip_changed) {
          const chain::BlockId new_tip = tips[node];
          if (tree.block(new_tip).parent != tip_before) {
            timeline->record_fork_switch(now, node, tip_before, new_tip);
          }
        }
      }
      if (learned != nullptr) {
        learned->push_back(id);
      }
      const auto [begin, end] = waiting[node].equal_range(id);
      for (auto it = begin; it != end; ++it) {
        ready.push_back(it->second);
      }
      waiting[node].erase(begin, end);
    }
  };

  // Fault decisions come from the plan's own stream: injecting faults never
  // perturbs the mining/propagation draws taken from the caller's `rng`, so
  // an all-zero plan reproduces the no-fault baseline bit for bit.
  const robust::FaultPlan& faults = config_.faults;
  Rng fault_rng(faults.seed);

  EventEngine<NetEvent> engine;

  // Whether a copy of `block` landing on `peer` (which has not learned it)
  // at `arrival` can be left out of the queue. It can when the peer knows
  // the block's parent and an earlier-queued copy lands no later: that copy
  // dispatches first (on a tie it has the same class and a lower seq) and
  // the peer learns the block from it, so this one would find the block
  // known and do nothing. A copy to a peer missing the parent is queued: it
  // may park the block a second time, and a second park entry changes the
  // order in which siblings unpark. Tracks the earliest queued arrival.
  const auto redundant = [&](std::size_t peer, chain::BlockId block,
                             double arrival) {
    const auto entry = find_in_flight(peer, block);
    if (entry == in_flight[peer].end()) {
      in_flight[peer].push_back({block, arrival});
      return false;
    }
    if (arrival < entry->arrival) {
      entry->arrival = arrival;
      return false;
    }
    const chain::BlockId parent = tree.block(block).parent;
    return parent == chain::kNoBlock || knows(peer, parent);
  };
  double last_redundant = 0.0;  // latest arrival of a copy never queued

  // Schedules one copy of `block` from `from` to `peer`, applying latency
  // jitter, partition deferral (messages crossing an active cut are held
  // until it heals, then take the normal link delay), and crash deferral
  // (arrivals during downtime wait for the restart). Every copy is counted
  // and recorded; a redundant one is not queued.
  const auto schedule_copy = [&](std::size_t from, std::size_t peer,
                                 chain::BlockId block, double now,
                                 double delay,
                                 const robust::LinkFault& fault) {
    double arrival = now + delay;
    if (fault.jitter_seconds > 0.0) {
      arrival += fault.jitter_seconds * fault_rng.next_double();
    }
    double heals_at = 0.0;
    if (faults.partitioned_at(from, peer, now, &heals_at)) {
      arrival = std::max(arrival, heals_at + delay);
      ++result.deferred_deliveries;
    }
    double up_at = 0.0;
    while (faults.crashed_at(peer, arrival, &up_at)) {
      arrival = up_at;
      ++result.deferred_deliveries;
    }
    if (timeline != nullptr) {
      timeline->record_relay(now, arrival, peer, from, block);
    }
    if (redundant(peer, block, arrival)) {
      last_redundant = std::max(last_redundant, arrival);
      return;
    }
    engine.schedule(arrival, kDelivery,
                    NetEvent{static_cast<std::uint32_t>(peer), block,
                             static_cast<std::uint32_t>(from)});
  };

  // Sends `block` from `from` to `peer` over a link with the given base
  // delay, drawing the drop / duplicate faults in the legacy order.
  const auto send_copy = [&](std::size_t from, std::size_t peer,
                             chain::BlockId block, double now, double delay) {
    const robust::LinkFault& fault = faults.link_fault(from, peer);
    if (fault.drop_probability > 0.0 &&
        fault_rng.next_bernoulli(fault.drop_probability)) {
      ++result.dropped_messages;
      return;
    }
    schedule_copy(from, peer, block, now, delay, fault);
    if (fault.duplicate_probability > 0.0 &&
        fault_rng.next_bernoulli(fault.duplicate_probability)) {
      ++result.duplicated_messages;
      schedule_copy(from, peer, block, now, delay, fault);
    }
  };

  // Gossip step: `node` forwards `block` to every neighbor except the one
  // it came from and those already known to have it.
  const auto forward_block = [&](std::size_t node, chain::BlockId block,
                                 std::size_t exclude, double now) {
    const chain::ByteSize size = tree.block(block).size;
    const double bytes = wire_bytes(config_.relay, size);
    for (const Link& link : config_.topology.adjacency[node]) {
      const auto peer = static_cast<std::size_t>(link.to);
      if (peer == exclude || knows(peer, block)) {
        continue;
      }
      ++result.relayed_messages;
      send_copy(node, peer, block, now, link.latency + bytes / link.bandwidth);
    }
  };

  obs::Span run_span("net.run", "sim");
  run_span.arg("miners", static_cast<std::int64_t>(num_miners));
  run_span.arg("nodes", static_cast<std::int64_t>(num_nodes));
  run_span.arg("blocks", static_cast<std::int64_t>(blocks));
  run_span.arg("mode", relay_mode ? "relay" : "direct");

  std::uint64_t found = 0;
  // Drawn unconditionally (the legacy loop primed `next_find` before
  // checking `blocks`), keeping the caller's stream position identical.
  const double first_find = rng.next_exponential(1.0 / config_.block_interval);
  if (blocks > 0) {
    engine.schedule(first_find, kFind, NetEvent{});
  }

  const auto on_find = [&](double now) {
    // The legacy draw order: next find interval first, then attribution.
    // The interval is drawn even when this is the last block (the draw is
    // discarded), keeping the caller's stream position identical.
    const double next_find =
        now + rng.next_exponential(1.0 / config_.block_interval);
    const std::size_t who = by_power.sample(rng);
    const std::size_t origin = miner_node(who);
    if (faults.crashed_at(origin, now)) {
      // A crashed miner burns its hash power without producing a block.
      ++result.wasted_finds;
      engine.schedule(next_find, kFind, NetEvent{});
      return;
    }
    const NetMiner& miner = config_.miners[who];
    const chain::BlockId block =
        tree.add_block(tips[origin], miner.block_size,
                       static_cast<chain::MinerId>(who));
    known.resize(known.size() + words, 0);
    if (timeline != nullptr) {
      timeline->record_find(now, origin, who, block, miner.block_size);
    }
    ++found;
    ++result.mined_per_miner[who];
    if (found < blocks) {
      engine.schedule(next_find, kFind, NetEvent{});
    }
    // the miner knows its block instantly
    deliver(origin, block, now, nullptr);
    if (relay_mode) {
      forward_block(origin, block, origin, now);
      return;
    }
    for (std::size_t peer = 0; peer < num_miners; ++peer) {
      if (peer == who) {
        continue;
      }
      const NetMiner& receiver = config_.miners[peer];
      const double delay =
          receiver.latency +
          wire_bytes(config_.relay, miner.block_size) / receiver.bandwidth;
      send_copy(who, peer, block, now, delay);
    }
  };

  std::vector<chain::BlockId> learned;
  std::uint64_t stale_deliveries = 0;  // copies of blocks already known
  const auto on_delivery = [&](const NetEvent& event, double now) {
    if (knows(event.node, event.block)) {
      ++stale_deliveries;
      return;
    }
    if (!relay_mode) {
      deliver(event.node, event.block, now, nullptr);
      return;
    }
    learned.clear();
    deliver(event.node, event.block, now, &learned);
    for (const chain::BlockId id : learned) {
      // Suppress the echo only for the copy that just arrived; unparked
      // descendants came from older senders and go to every neighbor.
      const std::size_t exclude =
          id == event.block ? event.from : event.node;
      forward_block(event.node, id, exclude, now);
    }
  };

  result.status = engine.drain(
      control, [&](const EventEngine<NetEvent>::Event& event) {
        if (event.klass == kFind) {
          on_find(event.time);
        } else {
          on_delivery(event.payload, event.time);
        }
      });

  result.blocks_mined = found;
  // A full drain ends at the latest arrival of any copy, redundant ones
  // included; a stopped run ends at its last dispatched event.
  result.duration = result.status == robust::RunStatus::kConverged
                        ? std::max(engine.now(), last_redundant)
                        : engine.now();
  // Aggregate counters are published once per run (the per-event loop above
  // stays untouched); the fault-injection tallies come straight from the
  // result the loop already maintains.
  run_span.arg("events", engine.stats().ticks);
  run_span.arg("status", robust::to_string(result.status));
  engine.publish_metrics();
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.counter("sim.net.events")
        .add(static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, engine.stats().ticks)));
    registry.counter("sim.net.blocks_mined").add(found);
    registry.counter("sim.net.dropped_messages").add(result.dropped_messages);
    registry.counter("sim.net.duplicated_messages")
        .add(result.duplicated_messages);
    registry.counter("sim.net.deferred_deliveries")
        .add(result.deferred_deliveries);
    registry.counter("sim.net.wasted_finds").add(result.wasted_finds);
    registry.counter("sim.net.relayed_messages").add(result.relayed_messages);
    registry.counter("sim.net.stale_deliveries").add(stale_deliveries);
  }

  // --- final accounting ------------------------------------------------
  // Canonical tip: the tip backed by the most power; deepest on ties.
  std::map<chain::BlockId, double> support;
  for (std::size_t i = 0; i < num_miners; ++i) {
    support[tips[miner_node(i)]] += config_.miners[i].power;
  }
  chain::BlockId canonical = tree.genesis();
  double best_power = -1.0;
  for (const auto& [tip, power] : support) {
    const bool better =
        power > best_power + 1e-12 ||
        (std::abs(power - best_power) <= 1e-12 &&
         tree.block(tip).height > tree.block(canonical).height);
    if (better) {
      canonical = tip;
      best_power = power;
    }
  }
  result.canonical_length = tree.block(canonical).height;
  std::vector<bool> on_canonical(tree.size(), false);
  for (chain::BlockId id = canonical; id != chain::kNoBlock;
       id = tree.block(id).parent) {
    on_canonical[id] = true;
  }
  for (chain::BlockId id = 1; id < tree.size(); ++id) {
    const chain::MinerId miner = tree.block(id).miner;
    if (on_canonical[id]) {
      ++result.locked_per_miner[static_cast<std::size_t>(miner)];
    } else {
      ++result.orphaned_blocks;
      ++result.orphaned_per_miner[static_cast<std::size_t>(miner)];
    }
  }
  return result;
}

}  // namespace bvc::sim
