// ModelCache: content-addressed sharing of compiled models — hit/miss
// accounting, key canonicalization, and cross-thread sharing (registered
// under the `parallel` ctest label; the sharing test is the TSan target).
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bu/attack_analysis.hpp"
#include "bu/attack_model.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/model.hpp"
#include "mdp/model_cache.hpp"
#include "obs/trace.hpp"

namespace {

using namespace bvc;

mdp::Model tiny_model() {
  mdp::ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0, 1.0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, 0.0, 1.0);
  return std::move(builder).build();
}

TEST(ModelCache, MissThenHitSharesOneEntry) {
  mdp::ModelCache cache;
  int builds = 0;
  const auto compile = [&] {
    ++builds;
    return mdp::CompiledModel::compile_shared(tiny_model());
  };

  const auto first = cache.get_or_compile("k1", compile);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(builds, 1);

  const auto second = cache.get_or_compile("k1", compile);
  EXPECT_EQ(second.get(), first.get());  // same immutable entry
  EXPECT_EQ(builds, 1);                  // no recompilation on a hit

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ModelCache, DistinctKeysGetDistinctEntries) {
  mdp::ModelCache cache;
  const auto compile = [] {
    return mdp::CompiledModel::compile_shared(tiny_model());
  };
  const auto a = cache.get_or_compile("a", compile);
  const auto b = cache.get_or_compile("b", compile);
  EXPECT_NE(a.get(), b.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ModelCache, FindProbesWithoutFillingOrCounting) {
  mdp::ModelCache cache;
  EXPECT_EQ(cache.find("missing"), nullptr);
  const auto compile = [] {
    return mdp::CompiledModel::compile_shared(tiny_model());
  };
  const auto entry = cache.get_or_compile("k", compile);
  EXPECT_EQ(cache.find("k").get(), entry.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);  // find() counts neither hits nor misses
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ModelCache, ClearDropsEntriesButKeepsOutstandingModelsAlive) {
  mdp::ModelCache cache;
  const auto compile = [] {
    return mdp::CompiledModel::compile_shared(tiny_model());
  };
  const auto held = cache.get_or_compile("k", compile);
  cache.clear();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(cache.find("k"), nullptr);
  // The caller's shared_ptr still owns a live model.
  EXPECT_EQ(held->num_states(), 2u);
}

TEST(ModelCache, BytesResidentTracksInsertionsAndClear) {
  mdp::ModelCache cache;
  EXPECT_EQ(cache.stats().bytes_resident, 0u);

  const auto model = mdp::CompiledModel::compile_shared(tiny_model());
  const std::size_t per_model = model->bytes_resident();
  EXPECT_GT(per_model, 0u);  // the SoA columns of a 2-state model

  const auto compile = [] {
    return mdp::CompiledModel::compile_shared(tiny_model());
  };
  (void)cache.get_or_compile("a", compile);
  EXPECT_EQ(cache.stats().bytes_resident, per_model);
  // A hit shares the existing entry: no new resident bytes.
  (void)cache.get_or_compile("a", compile);
  EXPECT_EQ(cache.stats().bytes_resident, per_model);
  (void)cache.get_or_compile("b", compile);
  EXPECT_EQ(cache.stats().bytes_resident, 2 * per_model);

  cache.clear();
  EXPECT_EQ(cache.stats().bytes_resident, 0u);
}

TEST(ModelCache, AppendKeyIsCanonical) {
  std::string key;
  mdp::append_key(key, "alpha", 0.1);
  mdp::append_key(key, "ad", std::int64_t{6});
  mdp::append_key(key, "wait", false);
  std::string same;
  mdp::append_key(same, "alpha", 0.1);
  mdp::append_key(same, "ad", std::int64_t{6});
  mdp::append_key(same, "wait", false);
  EXPECT_EQ(key, same);

  // Doubles that differ below printf's default precision must still get
  // distinct keys (round-trip %.17g rendering).
  std::string a;
  std::string b;
  mdp::append_key(a, "x", 0.1);
  mdp::append_key(b, "x", 0.1 + 1e-16);
  EXPECT_NE(a, b);
}

TEST(ModelCache, BuilderKeyCanonicalizesNormalizedInputs) {
  // The orphaning utility forces allow_wait inside the builder, so the two
  // parameter structs build the same model and must share one key.
  bu::AttackParams with_wait;
  with_wait.allow_wait = true;
  bu::AttackParams without_wait;
  without_wait.allow_wait = false;
  EXPECT_EQ(bu::attack_model_cache_key(with_wait, bu::Utility::kOrphaning),
            bu::attack_model_cache_key(without_wait, bu::Utility::kOrphaning));
  // ...but stay distinct where the flag genuinely shapes the model.
  EXPECT_NE(
      bu::attack_model_cache_key(with_wait, bu::Utility::kRelativeRevenue),
      bu::attack_model_cache_key(without_wait, bu::Utility::kRelativeRevenue));
}

TEST(ModelCache, CrossThreadLookupsShareOneCompilation) {
  mdp::ModelCache cache;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLookupsPerThread = 50;

  std::vector<std::shared_ptr<const mdp::CompiledModel>> seen(
      kThreads * kLookupsPerThread);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &seen, t] {
      for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
        seen[t * kLookupsPerThread + i] = cache.get_or_compile("shared", [] {
          return mdp::CompiledModel::compile_shared(tiny_model());
        });
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  // Every lookup observed the same immutable entry (first insert wins).
  for (const auto& entry : seen) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry.get(), seen[0].get());
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  // Racing fills may each count a miss, but accounting stays consistent:
  // every lookup is classified exactly once.
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kLookupsPerThread);
  EXPECT_GE(stats.misses, 1u);
}

// ---- capacity cap: deferred cost-aware LRU eviction -----------------------

/// A chain model with `states` states: bytes_resident scales with the
/// state count, giving the eviction tests models of controlled size.
mdp::Model chain_model(mdp::StateId states) {
  mdp::ModelBuilder builder(states);
  for (mdp::StateId s = 0; s < states; ++s) {
    builder.begin_action(s, 0);
    builder.add_outcome((s + 1) % states, 1.0, 1.0, 1.0);
  }
  return std::move(builder).build();
}

TEST(ModelCacheEviction, CapBoundsBytesResidentExactly) {
  mdp::ModelCache cache;
  const std::size_t per_model =
      mdp::CompiledModel::compile_shared(chain_model(8))->bytes_resident();
  // Room for exactly two 8-state models.
  cache.set_capacity_bytes(2 * per_model);

  const auto compile = [] {
    return mdp::CompiledModel::compile_shared(chain_model(8));
  };
  (void)cache.get_or_compile("a", compile);
  (void)cache.get_or_compile("b", compile);
  {
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.bytes_resident, 2 * per_model);
  }
  (void)cache.get_or_compile("c", compile);
  const auto stats = cache.stats();
  // The accounting must agree with CompiledModel::bytes_resident: two
  // entries retained, one evicted, residency exactly two models.
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes_resident, 2 * per_model);
  EXPECT_LE(stats.bytes_resident, stats.capacity_bytes);
}

/// A compile callback whose measured cost is dominated by a busy-wait, so
/// the tests can order entry priorities deterministically.
std::function<std::shared_ptr<const mdp::CompiledModel>()> costing(int ms) {
  return [ms] {
    const auto begin = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - begin <
           std::chrono::milliseconds(ms)) {
    }
    return mdp::CompiledModel::compile_shared(chain_model(8));
  };
}

TEST(ModelCacheEviction, HitRefreshRescuesEntryFromEviction) {
  // GreedyDual-Size recency: once an eviction advances the clock, touching
  // an entry re-bases its priority on the new clock. Costs (in ms busy-wait)
  // are ordered so every victim choice is deterministic:
  //   insert a=50, b=200, c=100; cap forces one eviction -> a (min H = 50),
  //   clock becomes 50. Touch c: H_c = 50 + 100 = 150. Insert d=70:
  //   H_d = 120, the new minimum -> d evicts itself, the touched c
  //   survives. Without the touch c (H = 100) would have been the victim.
  //   The gaps are tens of ms so scheduler preemption of the busy-wait
  //   (the costs are wall-clock-measured) cannot reorder the victims
  //   when the suite runs under full parallel load.
  mdp::ModelCache cache;
  const std::size_t per_model =
      mdp::CompiledModel::compile_shared(chain_model(8))->bytes_resident();
  cache.set_capacity_bytes(2 * per_model);
  (void)cache.get_or_compile("a", costing(50));
  (void)cache.get_or_compile("b", costing(200));
  (void)cache.get_or_compile("c", costing(100));
  EXPECT_EQ(cache.find("a"), nullptr);  // cheapest of the first generation
  (void)cache.get_or_compile("c", costing(100));  // hit: re-base on the clock
  (void)cache.get_or_compile("d", costing(70));
  EXPECT_EQ(cache.find("d"), nullptr);
  EXPECT_NE(cache.find("b"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ModelCacheEviction, SelfEvictingInsertStillReturnsItsModel) {
  // A large model whose compile is near-instant has the minimum
  // GreedyDual-Size priority the moment it is inserted, so enforcing the
  // cap evicts the entry that was just created. The caller must still get
  // the compiled model back (regression: the post-eviction read of the
  // erased entry was a use-after-free).
  mdp::ModelCache cache;
  const std::size_t per_model =
      mdp::CompiledModel::compile_shared(chain_model(8))->bytes_resident();
  cache.set_capacity_bytes(2 * per_model);
  (void)cache.get_or_compile("a", costing(20));
  (void)cache.get_or_compile("b", costing(20));
  const auto huge = cache.get_or_compile(
      "huge", [] { return mdp::CompiledModel::compile_shared(chain_model(64)); });
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(huge->num_states(), 64);
  EXPECT_EQ(cache.find("huge"), nullptr);  // the insert was its own victim
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_NE(cache.find("b"), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes_resident, 2 * per_model);
}

TEST(ModelCacheEviction, EqualRecencyPrefersEvictingCheapEntries) {
  // Cost-aware tie-break: with every entry equally recent, the one whose
  // compilation cost the least per byte goes first. The cheap entry's
  // compile is instant; the expensive one gets a synthetic stall.
  mdp::ModelCache cache;
  const std::size_t small_bytes =
      mdp::CompiledModel::compile_shared(chain_model(8))->bytes_resident();
  (void)cache.get_or_compile("expensive", [] {
    // A bigger build stands in for a slow one: its wall clock is what the
    // cache records as reconstruction cost.
    const auto begin = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - begin <
           std::chrono::milliseconds(5)) {
    }
    return mdp::CompiledModel::compile_shared(chain_model(8));
  });
  (void)cache.get_or_compile("cheap", [] {
    return mdp::CompiledModel::compile_shared(chain_model(8));
  });
  // Cap to one model: exactly one of the two must go.
  cache.set_capacity_bytes(small_bytes);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.find("cheap"), nullptr);
  EXPECT_NE(cache.find("expensive"), nullptr);
}

TEST(ModelCacheEviction, SettingCapacityEvictsImmediately) {
  mdp::ModelCache cache;
  const auto compile = [] {
    return mdp::CompiledModel::compile_shared(chain_model(16));
  };
  (void)cache.get_or_compile("a", compile);
  (void)cache.get_or_compile("b", compile);
  (void)cache.get_or_compile("c", compile);
  ASSERT_EQ(cache.stats().entries, 3u);
  cache.set_capacity_bytes(1);  // below one model: keep only the floor of 1
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // never evicts the last entry
  EXPECT_EQ(stats.evictions, 2u);
  // Returning to unbounded stops evicting but keeps the tallies.
  cache.set_capacity_bytes(0);
  (void)cache.get_or_compile("d", compile);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

// ---- disk tier ------------------------------------------------------------

class ModelCacheDiskTier : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "bvc_cache_tier_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ModelCacheDiskTier, SpillsOnCompileAndReloadsAfterClear) {
  mdp::ModelCache cache;
  cache.set_disk_tier(dir_);
  int builds = 0;
  const auto compile = [&] {
    ++builds;
    return mdp::CompiledModel::compile_shared(chain_model(8));
  };
  const auto first = cache.get_or_compile("k", compile);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.stats().disk_stores, 1u);
  EXPECT_TRUE(
      std::filesystem::exists(mdp::ModelCache::disk_path(dir_, "k")));

  cache.clear();  // memory gone, disk tier survives
  const auto reloaded = cache.get_or_compile("k", compile);
  EXPECT_EQ(builds, 1);  // served from disk, not recompiled
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->num_states(), first->num_states());
  EXPECT_EQ(reloaded->bytes_resident(), first->bytes_resident());
}

TEST_F(ModelCacheDiskTier, KeyMismatchInFileFallsBackToCompile) {
  mdp::ModelCache cache;
  cache.set_disk_tier(dir_);
  // Plant a file for key "other" at the path "victim" hashes to: a forced
  // filename collision. The stored-key check must reject it.
  const std::string path = mdp::ModelCache::disk_path(dir_, "victim");
  {
    mdp::ModelCache planter;
    planter.set_disk_tier(dir_);
    (void)planter.get_or_compile("other", [] {
      return mdp::CompiledModel::compile_shared(chain_model(8));
    });
    std::filesystem::rename(mdp::ModelCache::disk_path(dir_, "other"), path);
  }
  int builds = 0;
  (void)cache.get_or_compile("victim", [&] {
    ++builds;
    return mdp::CompiledModel::compile_shared(chain_model(8));
  });
  EXPECT_EQ(builds, 1);  // collision detected, recompiled
  EXPECT_EQ(cache.stats().disk_hits, 0u);
}

TEST_F(ModelCacheDiskTier, CorruptFileFallsBackToCompile) {
  mdp::ModelCache cache;
  cache.set_disk_tier(dir_);
  const std::string path = mdp::ModelCache::disk_path(dir_, "k");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a model";
  }
  int builds = 0;
  const auto model = cache.get_or_compile("k", [&] {
    ++builds;
    return mdp::CompiledModel::compile_shared(chain_model(8));
  });
  EXPECT_EQ(builds, 1);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->num_states(), 8u);
}

TEST(CompiledModelSerialization, RoundTripIsBitIdentical) {
  const auto original = mdp::CompiledModel::compile_shared(chain_model(5));
  std::stringstream buffer;
  original->serialize(buffer);
  const auto restored = mdp::CompiledModel::deserialize(buffer);
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->num_states(), original->num_states());
  ASSERT_EQ(restored->num_state_actions(), original->num_state_actions());
  ASSERT_EQ(restored->num_outcomes(), original->num_outcomes());
  EXPECT_EQ(restored->bytes_resident(), original->bytes_resident());
  for (std::size_t i = 0; i < original->num_outcomes(); ++i) {
    ASSERT_EQ(restored->next()[i], original->next()[i]);
    ASSERT_EQ(restored->prob()[i], original->prob()[i]);
    ASSERT_EQ(restored->reward()[i], original->reward()[i]);
    ASSERT_EQ(restored->weight()[i], original->weight()[i]);
  }
  for (std::size_t sa = 0; sa < original->num_state_actions(); ++sa) {
    ASSERT_EQ(restored->expected_reward(sa), original->expected_reward(sa));
    ASSERT_EQ(restored->expected_weight(sa), original->expected_weight(sa));
  }
}

TEST(CompiledModelSerialization, TruncatedStreamIsRejected) {
  const auto original = mdp::CompiledModel::compile_shared(chain_model(5));
  std::stringstream buffer;
  original->serialize(buffer);
  const std::string full = buffer.str();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, full.size() / 2, full.size() - 1}) {
    std::stringstream truncated(full.substr(0, keep));
    EXPECT_EQ(mdp::CompiledModel::deserialize(truncated), nullptr)
        << "accepted a stream truncated to " << keep << " bytes";
  }
}

TEST(ModelCache, GlobalCacheServesTheModelBuilders) {
  bu::AttackParams params;
  params.alpha = 0.31;  // a cell no other test builds
  params.beta = 0.35;
  params.gamma = 0.34;
  const std::string key =
      bu::attack_model_cache_key(params, bu::Utility::kRelativeRevenue);

  const bu::AttackModel first =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  ASSERT_NE(first.compiled, nullptr);
  EXPECT_EQ(mdp::ModelCache::global().find(key).get(), first.compiled.get());

  const bu::AttackModel second =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  EXPECT_EQ(second.compiled.get(), first.compiled.get());
}

// ---- cache-first lookups: enumerate only on a miss ------------------------

/// One traced complete span: its name, args and [begin, end] in µs.
struct TracedSpan {
  std::string name;
  std::string args;
  double begin_us = 0.0;
  double end_us = 0.0;
};

/// Runs `body` with tracing on and returns every span it recorded.
std::vector<TracedSpan> trace_of(const std::function<void()>& body) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  tracer.enable();
  body();
  tracer.disable();
  std::ostringstream out;
  tracer.write_jsonl(out);
  tracer.reset();

  const auto field = [](const std::string& line, const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\":");
    return at == std::string::npos ? std::string{}
                                   : line.substr(at + key.size() + 3);
  };
  std::vector<TracedSpan> spans;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    TracedSpan span;
    const std::string name = field(line, "name");
    span.name = name.substr(1, name.find('"', 1) - 1);
    const std::string args = field(line, "args");
    span.args = args.substr(0, args.find('}') + 1);
    const std::string duration = field(line, "dur");  // none on instants
    span.begin_us = std::stod(field(line, "ts"));
    span.end_us =
        span.begin_us + (duration.empty() ? 0.0 : std::stod(duration));
    spans.push_back(std::move(span));
  }
  return spans;
}

std::vector<TracedSpan> named(const std::vector<TracedSpan>& spans,
                              const std::string& name) {
  std::vector<TracedSpan> out;
  for (const TracedSpan& span : spans) {
    if (span.name == name) {
      out.push_back(span);
    }
  }
  return out;
}

bu::AttackParams cache_first_params() {
  bu::AttackParams params;
  params.alpha = 0.27;  // a cell no other test builds
  params.beta = 0.36;
  params.gamma = 0.37;
  return params;
}

TEST(CacheFirst, MissEnumeratesInsideTheCompileSpan) {
  mdp::ModelCache::global().clear();
  std::shared_ptr<const mdp::CompiledModel> compiled;
  const std::vector<TracedSpan> spans = trace_of([&] {
    compiled = bu::attack_model_compiled(cache_first_params(),
                                         bu::Utility::kRelativeRevenue);
  });
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(mdp::ModelCache::global().stats().misses, 1u);

  const std::vector<TracedSpan> builds = named(spans, "bu.build");
  const std::vector<TracedSpan> compiles = named(spans, "cache.compile");
  ASSERT_EQ(builds.size(), 1u);
  ASSERT_EQ(compiles.size(), 1u);
  // The enumeration is the fill: its span nests in the miss's compile span.
  EXPECT_GE(builds[0].begin_us, compiles[0].begin_us);
  EXPECT_LE(builds[0].end_us, compiles[0].end_us);
  EXPECT_NE(builds[0].args.find("\"states\":" +
                                std::to_string(compiled->num_states())),
            std::string::npos)
      << builds[0].args;
  EXPECT_NE(builds[0].args.find("\"outcomes\":" +
                                std::to_string(compiled->num_outcomes())),
            std::string::npos)
      << builds[0].args;
}

TEST(CacheFirst, WarmRepeatHitsWithoutEnumerating) {
  const bu::AttackParams params = cache_first_params();
  mdp::ModelCache::global().clear();
  (void)bu::analyze(params, bu::Utility::kRelativeRevenue);
  const mdp::ModelCache::Stats cold = mdp::ModelCache::global().stats();
  ASSERT_EQ(cold.misses, 1u);

  const std::vector<TracedSpan> spans = trace_of([&] {
    (void)bu::analyze(params, bu::Utility::kRelativeRevenue);
    (void)bu::analyze(params, bu::Utility::kRelativeRevenue);
  });
  const mdp::ModelCache::Stats warm = mdp::ModelCache::global().stats();
  EXPECT_EQ(warm.hits, cold.hits + 2);
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_TRUE(named(spans, "bu.build").empty());
  EXPECT_TRUE(named(spans, "cache.compile").empty());
  EXPECT_EQ(named(spans, "ratio.solve").size(), 2u);  // the solves did run
}

TEST_F(ModelCacheDiskTier, GlobalReloadAfterClearSkipsTheEnumeration) {
  mdp::ModelCache& cache = mdp::ModelCache::global();
  cache.clear();
  cache.set_disk_tier(dir_);
  const bu::AttackParams params = cache_first_params();
  const auto first =
      bu::attack_model_compiled(params, bu::Utility::kRelativeRevenue);
  EXPECT_EQ(cache.stats().disk_stores, 1u);

  cache.clear();  // memory gone, disk tier survives
  std::shared_ptr<const mdp::CompiledModel> reloaded;
  const std::vector<TracedSpan> spans = trace_of([&] {
    reloaded =
        bu::attack_model_compiled(params, bu::Utility::kRelativeRevenue);
  });
  const mdp::ModelCache::Stats stats = cache.stats();
  cache.set_disk_tier("");
  cache.clear();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_TRUE(named(spans, "bu.build").empty());
  EXPECT_TRUE(named(spans, "cache.compile").empty());
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->num_states(), first->num_states());
  EXPECT_EQ(reloaded->num_outcomes(), first->num_outcomes());
}

}  // namespace
