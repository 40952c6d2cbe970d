// Generated network topologies for the multi-hop relay simulation.
//
// A Topology is a directed adjacency list with per-link latency (seconds)
// and bandwidth (bytes/second); the generators build symmetric graphs (each
// undirected edge appears once per direction, with identical parameters).
// Two families cover the paper's propagation discussions at scale:
//
//   * random_topology — a connected ring plus seeded random chords, the
//     classic small-world stand-in for Bitcoin's unstructured gossip mesh;
//   * hub_spoke_topology — a full mesh of well-provisioned hubs with cheap
//     fast links, each remaining node hanging off one hub over a slower
//     link, modeling the relay-backbone topology of the real network.
//
// Generation is deterministic in the config (its own seed, independent of
// the simulation Rng), so a topology is part of a replica's canonical key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bvc::sim {

/// One directed link. A block of `bytes` on the wire arrives
/// `latency + bytes / bandwidth` seconds after it is forwarded.
struct Link {
  std::uint32_t to = 0;
  double latency = 0.0;    ///< seconds, > 0
  double bandwidth = 0.0;  ///< bytes per second, > 0
};

/// Inclusive range for a sampled link parameter.
struct ParamRange {
  double lo = 0.0;
  double hi = 0.0;
};

struct Topology {
  /// adjacency[u] lists u's outgoing links, in forwarding order.
  std::vector<std::vector<Link>> adjacency;

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return adjacency.size();
  }
  [[nodiscard]] bool empty() const noexcept { return adjacency.empty(); }

  /// BVC_REQUIREs well-formedness: in-range endpoints, no self-links, and
  /// positive latency/bandwidth on every link (per-field messages).
  void validate() const;
};

/// Connected ring over `nodes` plus `extra_degree` random chords per node;
/// link latency/bandwidth sampled uniformly from the given ranges.
struct RandomTopologyConfig {
  std::size_t nodes = 0;
  std::size_t extra_degree = 2;  ///< random chords attempted per node
  ParamRange latency{0.05, 0.5};        ///< seconds
  ParamRange bandwidth{2e5, 2e6};       ///< bytes per second
  std::uint64_t seed = 0x7090'0000'0000'0001ULL;
};

[[nodiscard]] Topology random_topology(const RandomTopologyConfig& config);

/// `hubs` fully-meshed core nodes (indices 0..hubs-1) with fast uniform
/// links; every other node attaches to hub (i % hubs) over a sampled
/// spoke link.
struct HubSpokeConfig {
  std::size_t nodes = 0;
  std::size_t hubs = 4;
  double hub_latency = 0.02;     ///< seconds, hub <-> hub
  double hub_bandwidth = 1e7;    ///< bytes per second, hub <-> hub
  ParamRange spoke_latency{0.05, 0.5};
  ParamRange spoke_bandwidth{1e5, 1e6};
  std::uint64_t seed = 0x7090'0000'0000'0002ULL;
};

[[nodiscard]] Topology hub_spoke_topology(const HubSpokeConfig& config);

}  // namespace bvc::sim
