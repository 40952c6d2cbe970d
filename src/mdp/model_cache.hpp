// Content-addressed cache of model templates, one per rule set.
//
// The evaluation sweeps (Tables 2/3/4, ablations, the EB-choosing and
// block-size games, bvcd jobs) solve many cells that differ only in their
// mining-power shares. Those shares only weight the events; the rule set
// (setting, AD, gate period, utility, ...) fixes every state, successor
// and reward. A ModelCache maps a CANONICAL RULE-SET KEY — a string that
// uniquely encodes every input that shapes a branch, with doubles printed
// round-trip exactly (%.17g) — to one shared immutable ModelTemplate
// (model_template.hpp), and each solve instantiates its own CompiledModel
// from it: the paper's 130 table cells come from 8 templates.
//
// Keys are produced by the model authors (bu::attack_model_compiled,
// btc::sm_model_compiled), which know the *effective* rule set: inputs the
// builder normalizes (e.g. the orphaning utility forcing allow_wait) are
// canonicalized before keying, and inputs that decide which branches exist
// at all (btc's tie share at exactly 0 or 1) are keyed even though they
// are probabilities. Because the key needs only the parameters, the solve
// paths look up first: their `build` callback enumerates the rule set's
// state space into a template, so it runs only on a miss, and a hit costs
// one key format plus one hash probe. The `cache.compile` span times that
// whole build.
//
// The cache is unbounded and lives in memory only. A template costs about
// what one compiled model of its rule set costs (the setting-2 attack model
// with AD 6, 30,595 states, builds in tens of milliseconds), and a process
// meets a handful of rule sets, so there is nothing to evict or spill.
//
// Thread safety: get_or_build takes the lock only to probe and to insert.
// The build runs OUTSIDE the lock, so a slow enumeration never blocks
// unrelated lookups. A key is built once: the first lookup inserts a
// pending entry and builds it, and lookups of the same key that arrive
// meanwhile wait for that build and count as hits, so the miss count is
// the number of distinct keys built (a batch's workers all start on the
// same rule set at once). Templates are immutable, so readers share them
// without synchronization. Stats is ONE snapshot taken under the same lock
// that guards every counter it reports.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "mdp/model_template.hpp"

namespace bvc::mdp {

class ModelCache {
 public:
  /// One consistent view of the cache, captured atomically under the cache
  /// lock.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    /// Total ModelTemplate::bytes_resident over the cached templates (also
    /// exported as the `mdp.cache.bytes_resident` gauge when metrics are
    /// on).
    std::size_t bytes_resident = 0;
  };

  /// Returns the cached template for `key`, or runs `build` (outside the
  /// cache lock), inserts the result, and returns it. A lookup of a key
  /// another thread is building waits for that build. If `build` throws,
  /// the key is left uncached and the exception reaches this caller and
  /// the callers waiting on it.
  [[nodiscard]] std::shared_ptr<const ModelTemplate> get_or_build(
      const std::string& key, const std::function<ModelTemplate()>& build);

  /// Probe without filling: the cached template (waiting for it if it is
  /// being built), or nullptr. Counts neither a hit nor a miss.
  [[nodiscard]] std::shared_ptr<const ModelTemplate> find(
      const std::string& key) const;

  [[nodiscard]] Stats stats() const;

  /// Drops every entry and resets the counters. Outstanding shared_ptrs
  /// keep their templates alive; only the cache's references are released.
  void clear();

  /// The process-wide cache used by the bu/btc model builders.
  [[nodiscard]] static ModelCache& global();

 private:
  using Pending = std::shared_future<std::shared_ptr<const ModelTemplate>>;

  void refresh_gauges_locked() const;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Pending> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::size_t bytes_resident_ = 0;  ///< running sum over built entries
  std::uint64_t generation_ = 0;    ///< bumped by clear()
};

/// Appends `|name=value` to `key` with doubles rendered round-trip exactly;
/// the shared vocabulary for canonical cache keys.
void append_key(std::string& key, const char* name, double value);
void append_key(std::string& key, const char* name, std::int64_t value);
void append_key(std::string& key, const char* name, bool value);

}  // namespace bvc::mdp
