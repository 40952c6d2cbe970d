#include "mdp/model_cache.hpp"

#include <array>
#include <chrono>
#include <cstdio>
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
    const auto begin = std::chrono::steady_clock::now();
    built = std::make_shared<const ModelTemplate>(build());
    if (obs::metrics_enabled()) {
      static constexpr std::array<double, 6> kBounds = {1e-4, 1e-3, 1e-2,
                                                        0.1,  1.0,  10.0};
      static obs::Histogram& compile_seconds =
          obs::MetricsRegistry::global().histogram("mdp.cache.compile_seconds",
                                                   kBounds);
      compile_seconds.observe(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - begin)
                                  .count());
    }
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
  char buffer[64];
  // %.17g round-trips every finite double, so distinct parameters can never
  // collide on a shared key.
  std::snprintf(buffer, sizeof(buffer), "|%s=%.17g", name, value);
  key += buffer;
}

void append_key(std::string& key, const char* name, std::int64_t value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "|%s=%lld", name,
                static_cast<long long>(value));
  key += buffer;
}

void append_key(std::string& key, const char* name, bool value) {
  key += '|';
  key += name;
  key += value ? "=1" : "=0";
}

}  // namespace bvc::mdp
