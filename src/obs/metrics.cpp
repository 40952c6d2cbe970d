#include "obs/metrics.hpp"

#include "obs/event_log.hpp"
#include "obs/json.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace bvc::obs {

void set_metrics_enabled(bool enabled) noexcept {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("histogram bounds must be sorted ascending");
  }
}

void Histogram::observe(double value) noexcept {
  if (!metrics_enabled()) {
    return;
  }
  std::size_t bucket = 0;
  while (bucket < bounds_.size() && value > bounds_[bucket]) {
    ++bucket;
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = sum_bits_.load(std::memory_order_relaxed);
  std::uint64_t want;
  do {
    want = std::bit_cast<std::uint64_t>(std::bit_cast<double>(seen) + value);
  } while (!sum_bits_.compare_exchange_weak(seen, want,
                                            std::memory_order_relaxed));
}

void Histogram::reset() noexcept {
  for (auto& count : counts_) {
    count.store(0, std::memory_order_relaxed);
  }
  sum_bits_.store(std::bit_cast<std::uint64_t>(0.0),
                  std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(counts_.size());
  for (const auto& count : counts_) {
    snap.counts.push_back(count.load(std::memory_order_relaxed));
  }
  snap.sum = std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  snap.count = count_.load(std::memory_order_relaxed);
  return snap;
}

// ----------------------------------------------------------------- Registry

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    return *it->second;
  }
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    return *it->second;
  }
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> upper_bounds) {
  Histogram* found = nullptr;
  bool mismatch = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) {
      found = it->second.get();
      const std::vector<double>& existing = found->bounds();
      mismatch = !std::equal(existing.begin(), existing.end(),
                             upper_bounds.begin(), upper_bounds.end());
    } else {
      found = histograms_
                  .emplace(std::string(name),
                           std::make_unique<Histogram>(std::vector<double>(
                               upper_bounds.begin(), upper_bounds.end())))
                  .first->second.get();
    }
  }
  // Conflict handling happens after the lock is released: counter() takes
  // the same (non-recursive) mutex.
  if (mismatch) {
    counter("obs.metrics.histogram_bound_conflicts").add();
    log_warn("obs",
             "histogram re-registered with different bounds; keeping the "
             "original buckets",
             {{"name", name}});
  }
  return *found;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace(name, histogram->snapshot());
  }
  return snap;
}

void MetricsRegistry::reset() {
  // Zero in place: instrumentation sites hold references into the maps, so
  // the objects themselves must survive.
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->reset();
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies
  return *registry;
}

// --------------------------------------------------------------- JSON sink

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot) {
  std::string text = "{\n  \"counters\": {";
  bool first = true;
  // Opens one `"name": ` member of the current section.
  const auto member = [&](const std::string& name) {
    text += first ? "\n    " : ",\n    ";
    first = false;
    append_json_escaped(text, name);
    text += ": ";
  };
  for (const auto& [name, value] : snapshot.counters) {
    member(name);
    text += std::to_string(value);
  }
  text += first ? "" : "\n  ";
  text += "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    member(name);
    append_json_number(text, value);
  }
  text += first ? "" : "\n  ";
  text += "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    member(name);
    text += "{\"bounds\": [";
    for (std::size_t i = 0; i < histogram.bounds.size(); ++i) {
      text += i == 0 ? "" : ", ";
      append_json_number(text, histogram.bounds[i]);
    }
    text += "], \"counts\": [";
    for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
      text += i == 0 ? "" : ", ";
      text += std::to_string(histogram.counts[i]);
    }
    text += "], \"sum\": ";
    append_json_number(text, histogram.sum);
    text += ", \"count\": " + std::to_string(histogram.count) + "}";
  }
  text += first ? "" : "\n  ";
  text += "}\n}\n";
  out << text;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  write_metrics_json(out, snapshot());
}

}  // namespace bvc::obs
