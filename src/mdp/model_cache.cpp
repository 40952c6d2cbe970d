#include "mdp/model_cache.hpp"

#include <charconv>
#include <exception>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

namespace {

/// Mirrors the cache's own hit/miss tally into the metrics registry (the
/// cache counters exist regardless so bench summaries work without
/// --manifest-out; these only feed the metrics snapshot).
void note_lookup(bool hit) {
  static obs::Counter& hits =
      obs::MetricsRegistry::global().counter("mdp.cache.hits");
  static obs::Counter& misses =
      obs::MetricsRegistry::global().counter("mdp.cache.misses");
  (hit ? hits : misses).add();
}

}  // namespace

std::shared_ptr<const ModelTemplate> ModelCache::get_or_build(
    const std::string& key, const std::function<ModelTemplate()>& build) {
  BVC_REQUIRE(build != nullptr, "get_or_build requires a build callback");
  std::promise<std::shared_ptr<const ModelTemplate>> promise;
  Pending cached;
  std::uint64_t generation = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      ++hits_;
      cached = it->second;
    } else {
      ++misses_;
      entries_.emplace(key, promise.get_future().share());
      generation = generation_;
    }
  }
  note_lookup(cached.valid());
  if (cached.valid()) {
    return cached.get();  // waits, outside the lock, if still being built
  }

  // The build runs OUTSIDE the lock: a large enumeration must not
  // serialize every other lookup behind it.
  std::shared_ptr<const ModelTemplate> built;
  try {
    obs::Span span("cache.compile", "cache");
    span.arg("key", std::string_view(key));
    built = std::make_shared<const ModelTemplate>(build());
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (generation == generation_) {
        entries_.erase(key);
      }
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  promise.set_value(built);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (generation == generation_) {  // unless a clear() dropped the entry
    bytes_resident_ += built->bytes_resident();
    refresh_gauges_locked();
  }
  return built;
}

void ModelCache::refresh_gauges_locked() const {
  if (!obs::metrics_enabled()) {
    return;
  }
  obs::MetricsRegistry::global()
      .gauge("mdp.cache.entries")
      .set(static_cast<double>(entries_.size()));
  obs::MetricsRegistry::global()
      .gauge("mdp.cache.bytes_resident")
      .set(static_cast<double>(bytes_resident_));
}

std::shared_ptr<const ModelTemplate> ModelCache::find(
    const std::string& key) const {
  Pending pending;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      return nullptr;
    }
    pending = it->second;
  }
  return pending.get();
}

ModelCache::Stats ModelCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.entries = entries_.size();
  stats.bytes_resident = bytes_resident_;
  return stats;
}

void ModelCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
  bytes_resident_ = 0;
  ++generation_;
  refresh_gauges_locked();
}

ModelCache& ModelCache::global() {
  static ModelCache cache;
  return cache;
}

void append_key(std::string& key, const char* name, double value) {
  key += '|';
  key += name;
  key += '=';
  // %.17g round-trips every finite double, so distinct parameters can never
  // collide on a shared key. to_chars with general format and precision 17
  // is defined as printf's %.17g, at a fraction of snprintf's cost.
  char buffer[32];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 17);
  key.append(buffer, end.ptr);
}

void append_key(std::string& key, const char* name, std::int64_t value) {
  key += '|';
  key += name;
  key += '=';
  char buffer[24];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  key.append(buffer, end.ptr);
}

void append_key(std::string& key, const char* name, bool value) {
  key += '|';
  key += name;
  key += value ? "=1" : "=0";
}

}  // namespace bvc::mdp
