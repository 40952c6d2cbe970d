// Process-wide metrics: named counters and gauges. Durations are not
// metrics: the obs spans (trace.hpp) time each layer, and a distribution
// over solves or builds is a fold of those spans.
//
// Design goals, in order:
//
//   1. Hot paths stay hot. Every mutation (Counter::add, Gauge::set) first
//      performs ONE relaxed atomic load of the global enable flag and
//      returns immediately when metrics are off — instrumented code
//      compiled into the solvers' sweep loops costs a single predictable
//      branch per call. When enabled, mutations are lock-free relaxed
//      atomic stores or read-modify-writes; no mutation ever takes a lock.
//   2. Registration is rare and may lock. Instrumentation sites hold a
//      function-local static reference obtained once from
//      MetricsRegistry::global() (one mutex acquisition per site per
//      process); the returned objects have stable addresses for the
//      lifetime of the registry.
//   3. Reads are snapshots. snapshot() / write_json() read every metric
//      with relaxed loads; values observed concurrently with writers are
//      each individually coherent (no torn doubles — Gauge stores the bit
//      pattern in a std::atomic<std::uint64_t>).
//
// Naming scheme (docs/OBSERVABILITY.md): lowercase dotted paths,
// `<subsystem>.<component>.<metric>`, e.g. "mdp.cache.hits",
// "util.pool.busy_ns", "sim.net.dropped_messages".
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace bvc::obs {

namespace detail {
inline std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

/// The one relaxed check every metric mutation performs. Off by default;
/// bench binaries flip it on when `--manifest-out` is passed.
[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) {
      return;
    }
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double (queue depth, utilization, remaining budget...).
/// The bit pattern lives in a uint64 atomic so reads are never torn even
/// on platforms without lock-free atomic<double>.
class Gauge {
 public:
  void set(double value) noexcept {
    if (!metrics_enabled()) {
      return;
    }
    bits_.store(std::bit_cast<std::uint64_t>(value),
                std::memory_order_relaxed);
  }

  [[nodiscard]] double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

  void reset() noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(0.0),
                std::memory_order_relaxed);
  }

 private:
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Everything the registry knew at one instant, detached from the live
/// atomics; what write_json and the run manifest embed.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
};

class MetricsRegistry {
 public:
  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime; the global registry is never destroyed before exit.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// One JSON object: {"counters":{...},"gauges":{...}}.
  void write_json(std::ostream& out) const;

  /// Zeroes every registered metric (entries stay registered). Intended for
  /// tests; not safe concurrently with snapshot consumers that expect
  /// monotonic counters.
  void reset();

  [[nodiscard]] static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

/// Serializes a snapshot as the same JSON object write_json emits.
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot);

}  // namespace bvc::obs
