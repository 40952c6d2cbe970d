#include "obs/metrics.hpp"

#include "obs/json.hpp"

#include <ostream>

namespace bvc::obs {

void set_metrics_enabled(bool enabled) noexcept {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
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

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
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
  text += "}\n}\n";
  out << text;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  write_metrics_json(out, snapshot());
}

}  // namespace bvc::obs
