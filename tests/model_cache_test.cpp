// ModelCache: content-addressed sharing of model templates — hit/miss
// accounting, key canonicalization, and cross-thread sharing (registered
// under the `parallel` ctest label; the sharing test is the TSan target).
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "btc/selfish_mining.hpp"
#include "bu/attack_analysis.hpp"
#include "bu/attack_model.hpp"
#include "mdp/model_cache.hpp"
#include "mdp/model_template.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;

/// A two-state cycle with one symbol: the smallest template.
mdp::ModelTemplate tiny_template() {
  mdp::TemplateBuilder builder(2, 1);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 0, 1.0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 0, 0.0, 1.0);
  return builder.build();
}

TEST(ModelCache, MissThenHitSharesOneEntry) {
  mdp::ModelCache cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return tiny_template();
  };

  const auto first = cache.get_or_build("k1", build);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(builds, 1);

  const auto second = cache.get_or_build("k1", build);
  EXPECT_EQ(second.get(), first.get());  // same immutable entry
  EXPECT_EQ(builds, 1);                  // no rebuild on a hit

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ModelCache, DistinctKeysGetDistinctEntries) {
  mdp::ModelCache cache;
  const auto a = cache.get_or_build("a", tiny_template);
  const auto b = cache.get_or_build("b", tiny_template);
  EXPECT_NE(a.get(), b.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ModelCache, FindProbesWithoutFillingOrCounting) {
  mdp::ModelCache cache;
  EXPECT_EQ(cache.find("missing"), nullptr);
  const auto entry = cache.get_or_build("k", tiny_template);
  EXPECT_EQ(cache.find("k").get(), entry.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);  // find() counts neither hits nor misses
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ModelCache, ClearDropsEntriesButKeepsOutstandingModelsAlive) {
  mdp::ModelCache cache;
  const auto held = cache.get_or_build("k", tiny_template);
  cache.clear();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(cache.find("k"), nullptr);
  // The caller's shared_ptr still owns a live template.
  EXPECT_EQ(held->num_states(), 2u);
  EXPECT_EQ(held->instantiate(std::vector<double>{1.0}).num_states(), 2u);
}

TEST(ModelCache, BytesResidentTracksInsertionsAndClear) {
  mdp::ModelCache cache;
  EXPECT_EQ(cache.stats().bytes_resident, 0u);

  const std::size_t per_template = tiny_template().bytes_resident();
  EXPECT_GT(per_template, 0u);  // the index and contribution columns

  (void)cache.get_or_build("a", tiny_template);
  EXPECT_EQ(cache.stats().bytes_resident, per_template);
  // A hit shares the existing entry: no new resident bytes.
  (void)cache.get_or_build("a", tiny_template);
  EXPECT_EQ(cache.stats().bytes_resident, per_template);
  (void)cache.get_or_build("b", tiny_template);
  EXPECT_EQ(cache.stats().bytes_resident, 2 * per_template);

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

TEST(ModelCache, CellKeysKeepTheirJournalSpelling) {
  // Journals and bvcd records are keyed by these strings, so resuming a
  // journal written by an earlier build needs them byte for byte.
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.3;
  params.gamma = 0.45;
  params.setting = bu::Setting::kStickyGate;
  EXPECT_EQ(bu::attack_model_cache_key(params, bu::Utility::kOrphaning),
            "bu_attack|alpha=0.25|beta=0.29999999999999999|"
            "gamma=0.45000000000000001|ad=6|ad_carol=0|gate_period=144|"
            "setting=1|countdown=0|confirmations=4|rds=10|allow_wait=1|"
            "utility=2");
  EXPECT_EQ(bu::analysis_job_key({params, bu::Utility::kAbsoluteReward}, {}),
            "bu_attack|alpha=0.25|beta=0.29999999999999999|"
            "gamma=0.45000000000000001|ad=6|ad_carol=0|gate_period=144|"
            "setting=1|countdown=0|confirmations=4|rds=10|allow_wait=0|"
            "utility=1|tol=1.0000000000000001e-05|"
            "itol=1.9999999999999999e-07|isweeps=30000|itau=0.999");
  btc::SmParams sm;
  sm.alpha = 0.1;
  sm.gamma_tie = 1.0;
  EXPECT_EQ(btc::sm_model_cache_key(sm, bu::Utility::kAbsoluteReward),
            "btc_sm|alpha=0.10000000000000001|gamma_tie=1|max_len=24|"
            "confirmations=4|rds=10|utility=1");
}

TEST(ModelCache, AppendKeySpellsNumbersAsPrintfDoes) {
  // append_key formats with std::to_chars; every key a journal holds was
  // written with snprintf("|%s=%.17g") and "|%s=%lld", so the two must
  // agree byte for byte. Seeded: random bit patterns (subnormals and
  // extremes included), integers, grid-style shares and fixed edge cases.
  std::vector<double> values = {0.0,     -0.0,    1.0,     -1.0,
                                1e300,   -1e300,  1e-300,  -1e-300,
                                5e-324,  -5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308,    0.1,
                                0.375,   1e-5,    2e-7,    0.999,
                                1e16,    9007199254740993.0, 123456789.0};
  Rng rng(20251019);
  while (values.size() < 100'000) {
    switch (values.size() % 4) {
      case 0: {  // any finite bit pattern
        const std::uint64_t bits = rng.next_u64();
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof(value));
        if (std::isfinite(value)) {
          values.push_back(value);
        }
        break;
      }
      case 1:  // integers, as counts and sizes appear in keys
        values.push_back(static_cast<double>(
            static_cast<std::int64_t>(rng.next_below(1ULL << 53)) -
            (1LL << 52)));
        break;
      case 2: {  // grid alpha, and the beta/gamma split of the rest
        const double alpha = 0.01 * static_cast<double>(rng.next_below(50));
        const double b = static_cast<double>(1 + rng.next_below(4));
        const double g = static_cast<double>(1 + rng.next_below(4));
        values.push_back(alpha);
        values.push_back((1.0 - alpha) * b / (b + g));
        values.push_back((1.0 - alpha) * g / (b + g));
        break;
      }
      default:  // subnormals
        values.push_back(std::ldexp(rng.next_double(), -1060));
        break;
    }
  }
  char expected[64];
  for (const double value : values) {
    std::string key = "k";
    mdp::append_key(key, "x", value);
    std::snprintf(expected, sizeof(expected), "k|x=%.17g", value);
    ASSERT_EQ(key, expected) << "bits of " << value;

    const auto integer = static_cast<std::int64_t>(
        std::isfinite(value) && std::abs(value) < 9e18 ? value : 0.0);
    key = "k";
    mdp::append_key(key, "n", integer);
    std::snprintf(expected, sizeof(expected), "k|n=%lld",
                  static_cast<long long>(integer));
    ASSERT_EQ(key, expected);
  }
  for (const std::int64_t extreme : {std::numeric_limits<std::int64_t>::min(),
                                     std::numeric_limits<std::int64_t>::max()}) {
    std::string key;
    mdp::append_key(key, "n", extreme);
    std::snprintf(expected, sizeof(expected), "|n=%lld",
                  static_cast<long long>(extreme));
    EXPECT_EQ(key, expected);
  }
}

TEST(ModelCache, CrossThreadLookupsShareOneCompilation) {
  mdp::ModelCache cache;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLookupsPerThread = 50;

  std::vector<std::shared_ptr<const mdp::ModelTemplate>> seen(
      kThreads * kLookupsPerThread);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &seen, t] {
      for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
        seen[t * kLookupsPerThread + i] =
            cache.get_or_build("shared", tiny_template);
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
  // One build: lookups that race the first one wait for it and count as
  // hits, so every lookup is classified exactly once.
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kLookupsPerThread);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ModelCache, FailedBuildLeavesTheKeyUncached) {
  mdp::ModelCache cache;
  EXPECT_THROW((void)cache.get_or_build(
                   "k", []() -> mdp::ModelTemplate {
                     throw std::runtime_error("enumeration failed");
                   }),
               std::runtime_error);
  EXPECT_EQ(cache.find("k"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_NE(cache.get_or_build("k", tiny_template), nullptr);  // retried
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ModelCache, GlobalCacheServesTheModelBuilders) {
  bu::AttackParams params;
  params.alpha = 0.31;  // a cell no other test builds
  params.beta = 0.35;
  params.gamma = 0.34;
  mdp::ModelCache& cache = mdp::ModelCache::global();
  cache.clear();

  const std::shared_ptr<const mdp::CompiledModel> first =
      bu::attack_model_compiled(params, bu::Utility::kRelativeRevenue);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The cache holds the rule set's template, never a cell's model.
  EXPECT_EQ(cache.find(bu::attack_model_cache_key(
                params, bu::Utility::kRelativeRevenue)),
            nullptr);

  params.alpha = 0.32;  // another cell of the same rule set
  params.gamma = 0.33;
  const std::shared_ptr<const mdp::CompiledModel> second =
      bu::attack_model_compiled(params, bu::Utility::kRelativeRevenue);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(&second->index(), &first->index());
  // The base state's OnChain1 row pays alpha: the values are the cell's.
  EXPECT_EQ(second->expected_reward(0), 0.32);
  EXPECT_EQ(first->expected_reward(0), 0.31);
  cache.clear();
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
  const std::vector<TracedSpan> templates = named(spans, "model.template");
  const std::vector<TracedSpan> fills = named(spans, "model.instantiate");
  ASSERT_EQ(builds.size(), 1u);
  ASSERT_EQ(compiles.size(), 1u);
  ASSERT_EQ(templates.size(), 1u);
  ASSERT_EQ(fills.size(), 1u);
  // The enumeration is the fill: its span nests in the miss's compile span,
  // and the template's finalization nests in the enumeration. The cell's
  // instantiation follows, outside the cache.
  EXPECT_GE(builds[0].begin_us, compiles[0].begin_us);
  EXPECT_LE(builds[0].end_us, compiles[0].end_us);
  EXPECT_GE(templates[0].begin_us, builds[0].begin_us);
  EXPECT_LE(templates[0].end_us, builds[0].end_us);
  EXPECT_GE(fills[0].begin_us, compiles[0].end_us);
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
  EXPECT_EQ(named(spans, "model.instantiate").size(), 2u);
  EXPECT_EQ(named(spans, "ratio.solve").size(), 2u);  // the solves did run
}

}  // namespace
