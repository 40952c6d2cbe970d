// Content-addressed cache of compiled models.
//
// The evaluation sweeps (Tables 2/3/4, ablations, the EB-choosing and
// block-size games) build near-identical MDPs thousands of times: the same
// (parameters, utility) cell recurs across tables, retry escalations, and
// game rounds. A ModelCache maps a CANONICAL PARAMETER KEY — a string that
// uniquely encodes every input that shapes the model, with doubles printed
// round-trip exactly (%.17g) — to one shared immutable CompiledModel, so
// repeated cells share a single compilation.
//
// Keys are produced by the model authors (bu::attack_model_cache_key,
// btc::sm_model_cache_key), which know the *effective* parameter set:
// inputs the builder normalizes (e.g. the orphaning utility forcing
// allow_wait) are canonicalized before keying, so two parameter structs
// that build the same model hit the same entry. Because the key needs only
// the parameters, the solve paths look up first (bu::attack_model_compiled,
// btc::sm_model_compiled): their `fill` callback enumerates the state
// space, builds the Model and compiles it, so it runs only when both the
// memory and the disk tier miss, and a hit costs one key format plus one
// hash probe. The miss cost recorded for eviction (and the
// `mdp.cache.compile_seconds` histogram) is therefore the whole fill. The
// builders that hand back the state space too (build_attack_model,
// build_sm_model) enumerate first and pass a compile-only `fill`.
//
// Capacity (off by default): set_capacity_bytes(N) bounds the resident
// bytes with DEFERRED COST-AWARE LRU eviction. Deferred: lookups and the
// compile itself never wait on eviction — the cap is enforced after each
// insert, so residency may transiently overshoot by one model. Cost-aware:
// the victim is chosen by GreedyDual-Size — each entry carries a priority
// H = clock + cost_seconds / bytes, refreshed on every hit; evicting
// the minimum-H entry advances the clock to it. Plain LRU would happily
// drop a setting-2 compilation (tens of milliseconds) to keep ten
// sub-millisecond toy models; weighting recency by reconstruction cost per
// byte keeps the entries that are expensive to lose. Evicted (and all
// newly compiled) models can spill to an optional disk tier
// (set_disk_tier): a later miss reloads the file — milliseconds instead of
// a recompile — after verifying the stored key.
//
// Thread safety: get_or_compile takes the lock only to probe and to
// insert+evict. The build and all disk I/O run OUTSIDE the lock, so a slow
// compilation never blocks unrelated lookups; when two threads race to
// fill the same key the first insert wins and the loser's work is
// discarded (benign double work, never a torn entry). Cached models are
// immutable, so readers share them without synchronization. Stats is ONE
// snapshot taken under the same lock that guards every counter it reports
// — hits/misses/entries/bytes always describe the same instant.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mdp/compiled_model.hpp"

namespace bvc::mdp {

class ModelCache {
 public:
  /// One consistent view of the cache, captured atomically under the cache
  /// lock — fields never disagree with each other (an entries/bytes pair
  /// from different instants was the old API's race surface).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    /// Total CompiledModel::bytes_resident over the cached entries (also
    /// exported as the `mdp.cache.bytes_resident` gauge when metrics are
    /// on) — how much model memory the cache keeps live for the sweep.
    std::size_t bytes_resident = 0;
    /// Entries dropped by the capacity cap since the last clear().
    std::uint64_t evictions = 0;
    /// The configured cap; 0 = unbounded.
    std::size_t capacity_bytes = 0;
    /// Misses served by deserializing a disk-tier file (subset of
    /// `misses`: the lookup still missed in memory).
    std::uint64_t disk_hits = 0;
    /// Models spilled to the disk tier (on first compile and on evict).
    std::uint64_t disk_stores = 0;
  };

  /// Returns the cached compilation for `key`, or runs `compile` (outside
  /// the cache lock), inserts the result, and returns it. On a concurrent
  /// race for the same key, the first insert wins and every caller gets the
  /// winning entry. With a disk tier configured, a memory miss tries the
  /// disk file for `key` before compiling.
  [[nodiscard]] std::shared_ptr<const CompiledModel> get_or_compile(
      const std::string& key,
      const std::function<std::shared_ptr<const CompiledModel>()>& compile);

  /// Probe without filling: the cached entry, or nullptr. Counts neither a
  /// hit nor a miss and does not touch the disk tier or LRU priorities.
  [[nodiscard]] std::shared_ptr<const CompiledModel> find(
      const std::string& key) const;

  [[nodiscard]] Stats stats() const;

  /// Bounds resident bytes; 0 (the default) restores unbounded behaviour.
  /// Takes effect immediately: a cache already over the new cap evicts
  /// down to it before returning.
  void set_capacity_bytes(std::size_t bytes);

  /// Enables ("" disables) the disk-backed tier under `directory`, which
  /// must already exist. Files are content-addressed by a hash of the
  /// canonical key and verified against the full stored key on load, so a
  /// hash collision degrades to a recompile, never a wrong model.
  void set_disk_tier(std::string directory);

  /// Drops every entry and resets the counters. Outstanding shared_ptrs
  /// keep their models alive; only the cache's references are released.
  /// Disk-tier files survive (they are the point of the tier); capacity
  /// and directory configuration survive too.
  void clear();

  /// The process-wide cache used by the bu/btc model builders and the batch
  /// engine. Unbounded until someone opts into a cap (bvcd --cache-bytes
  /// does): the paper's full evaluation compiles a few hundred distinct
  /// models (tens of MB), far below any practical limit.
  [[nodiscard]] static ModelCache& global();

  /// The disk-tier file for `key` under `directory` (exposed for tests).
  [[nodiscard]] static std::string disk_path(const std::string& directory,
                                             const std::string& key);

 private:
  struct Entry {
    std::shared_ptr<const CompiledModel> model;
    double cost_seconds = 0.0;  ///< fill (or disk-load) wall clock
    double priority = 0.0;      ///< GreedyDual-Size H value
  };

  /// Evicts minimum-priority entries until bytes_resident_ <= capacity.
  /// Caller holds mutex_. Spills victims to `spill` (written outside the
  /// lock by the caller) when the disk tier is on and the entry was never
  /// stored.
  void evict_to_capacity_locked(
      std::vector<std::pair<std::string, std::shared_ptr<const CompiledModel>>>*
          spill);
  void refresh_gauges_locked() const;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t disk_stores_ = 0;
  std::size_t bytes_resident_ = 0;  ///< running sum over entries_
  std::size_t capacity_bytes_ = 0;  ///< 0 = unbounded
  double clock_ = 0.0;              ///< GreedyDual-Size aging clock
  std::string disk_directory_;      ///< "" = disk tier off
};

/// Appends `|name=value` to `key` with doubles rendered round-trip exactly;
/// the shared vocabulary for canonical cache keys.
void append_key(std::string& key, const char* name, double value);
void append_key(std::string& key, const char* name, std::int64_t value);
void append_key(std::string& key, const char* name, bool value);

}  // namespace bvc::mdp
