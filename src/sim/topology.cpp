#include "sim/topology.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace bvc::sim {

namespace {

double sample_range(const ParamRange& range, Rng& rng) {
  return range.lo + (range.hi - range.lo) * rng.next_double();
}

void require_range(const ParamRange& range, const char* what) {
  BVC_REQUIRE(range.lo > 0.0 && range.hi >= range.lo,
              std::string(what) + " range must satisfy 0 < lo <= hi");
}

/// Adds the undirected edge u <-> v (one Link per direction).
void add_edge(Topology& topology, std::size_t u, std::size_t v,
              double latency, double bandwidth) {
  topology.adjacency[u].push_back(
      {static_cast<std::uint32_t>(v), latency, bandwidth});
  topology.adjacency[v].push_back(
      {static_cast<std::uint32_t>(u), latency, bandwidth});
}

}  // namespace

void Topology::validate() const {
  for (std::size_t u = 0; u < adjacency.size(); ++u) {
    for (const Link& link : adjacency[u]) {
      BVC_REQUIRE(link.to < adjacency.size(),
                  "topology.adjacency[" + std::to_string(u) +
                      "]: link endpoint " + std::to_string(link.to) +
                      " out of range");
      BVC_REQUIRE(link.to != u, "topology.adjacency[" + std::to_string(u) +
                                    "]: self-link is not allowed");
      BVC_REQUIRE(link.latency > 0.0,
                  "topology.adjacency[" + std::to_string(u) +
                      "]: link latency must be positive");
      BVC_REQUIRE(link.bandwidth > 0.0,
                  "topology.adjacency[" + std::to_string(u) +
                      "]: link bandwidth must be positive");
    }
  }
}

Topology random_topology(const RandomTopologyConfig& config) {
  BVC_REQUIRE(config.nodes >= 2, "random topology needs at least 2 nodes");
  require_range(config.latency, "random topology latency");
  require_range(config.bandwidth, "random topology bandwidth");

  Topology topology;
  topology.adjacency.resize(config.nodes);
  Rng rng(config.seed);

  // The ring guarantees connectivity whatever the chord draws do.
  std::vector<std::unordered_set<std::size_t>> seen(config.nodes);
  for (std::size_t u = 0; u < config.nodes; ++u) {
    const std::size_t v = (u + 1) % config.nodes;
    add_edge(topology, u, v, sample_range(config.latency, rng),
             sample_range(config.bandwidth, rng));
    seen[u].insert(v);
    seen[v].insert(u);
  }
  // Random chords; a draw that would duplicate an edge (or self-link) is
  // skipped, so the realized degree can be below 2 + extra_degree.
  for (std::size_t u = 0; u < config.nodes; ++u) {
    for (std::size_t k = 0; k < config.extra_degree; ++k) {
      const std::size_t v =
          static_cast<std::size_t>(rng.next_below(config.nodes));
      const double latency = sample_range(config.latency, rng);
      const double bandwidth = sample_range(config.bandwidth, rng);
      if (v == u || seen[u].contains(v)) {
        continue;  // parameters drawn regardless, for schedule stability
      }
      add_edge(topology, u, v, latency, bandwidth);
      seen[u].insert(v);
      seen[v].insert(u);
    }
  }
  return topology;
}

Topology hub_spoke_topology(const HubSpokeConfig& config) {
  BVC_REQUIRE(config.hubs >= 1, "hub/spoke topology needs at least 1 hub");
  BVC_REQUIRE(config.nodes >= config.hubs,
              "hub/spoke topology needs nodes >= hubs");
  BVC_REQUIRE(config.hubs == 1 || config.hub_latency > 0.0,
              "hub latency must be positive");
  BVC_REQUIRE(config.hubs == 1 || config.hub_bandwidth > 0.0,
              "hub bandwidth must be positive");
  if (config.nodes > config.hubs) {
    require_range(config.spoke_latency, "spoke latency");
    require_range(config.spoke_bandwidth, "spoke bandwidth");
  }

  Topology topology;
  topology.adjacency.resize(config.nodes);
  Rng rng(config.seed);

  for (std::size_t a = 0; a < config.hubs; ++a) {
    for (std::size_t b = a + 1; b < config.hubs; ++b) {
      add_edge(topology, a, b, config.hub_latency, config.hub_bandwidth);
    }
  }
  for (std::size_t u = config.hubs; u < config.nodes; ++u) {
    const std::size_t hub = u % config.hubs;
    add_edge(topology, u, hub, sample_range(config.spoke_latency, rng),
             sample_range(config.spoke_bandwidth, rng));
  }
  return topology;
}

}  // namespace bvc::sim
