// Tests of the observability subsystem (src/obs/): metric gating and
// lock-free mutation, registry snapshots and JSON export, span tracing with
// per-thread rings and Chrome trace-event output, and run manifests.
//
// The metrics enable flag and the global tracer are process-wide; every
// test here that flips them restores the disabled state before returning so
// the suite stays order-independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace bvc;

/// Re-disables metrics and tracing on scope exit, whatever the test did.
struct ObsQuiescer {
  ~ObsQuiescer() {
    obs::set_metrics_enabled(false);
    obs::Tracer::global().disable();
  }
};

// ------------------------------------------------------------- metrics ---

TEST(Metrics, MutationsAreIgnoredWhileDisabled) {
  ObsQuiescer quiesce;
  obs::set_metrics_enabled(false);
  ASSERT_FALSE(obs::metrics_enabled());
  obs::Counter counter;
  counter.add(7);
  EXPECT_EQ(counter.value(), 0u);
  obs::Gauge gauge;
  gauge.set(3.5);
  gauge.add(1.0);
  EXPECT_EQ(gauge.value(), 0.0);
  obs::Histogram histogram({1.0, 2.0});
  histogram.observe(0.5);
  EXPECT_EQ(histogram.snapshot().count, 0u);
}

TEST(Metrics, CounterGaugeHistogramRecordWhenEnabled) {
  ObsQuiescer quiesce;
  obs::set_metrics_enabled(true);
  obs::Counter counter;
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);

  obs::Gauge gauge;
  gauge.set(2.5);
  EXPECT_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_EQ(gauge.value(), 1.5);

  obs::Histogram histogram({0.1, 1.0, 10.0});
  histogram.observe(0.05);   // bucket 0
  histogram.observe(0.5);    // bucket 1
  histogram.observe(10.0);   // bucket 2 (bounds are inclusive upper limits)
  histogram.observe(100.0);  // overflow
  const obs::Histogram::Snapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 110.55);
}

TEST(Metrics, RegistryFindsOrCreatesWithStableAddresses) {
  ObsQuiescer quiesce;
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("test.registry.counter");
  obs::Counter& b = registry.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);  // find-or-create: one object per name
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  const std::array<double, 2> bounds{1.0, 2.0};
  obs::Histogram& h1 = registry.histogram("test.registry.hist", bounds);
  // Bounds are consulted only on first registration.
  const std::array<double, 1> other{99.0};
  obs::Histogram& h2 = registry.histogram("test.registry.hist", other);
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.snapshot().bounds.size(), 2u);

  registry.gauge("test.registry.gauge").set(1.25);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot.counters.at("test.registry.counter"), 3u);
  EXPECT_EQ(snapshot.gauges.at("test.registry.gauge"), 1.25);
  EXPECT_EQ(snapshot.histograms.at("test.registry.hist").bounds.size(), 2u);

  registry.reset();
  EXPECT_EQ(registry.snapshot().counters.at("test.registry.counter"), 0u);
}

TEST(Metrics, WriteJsonEmitsEverySection) {
  ObsQuiescer quiesce;
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry registry;
  registry.counter("a.counter").add(5);
  registry.gauge("b.gauge").set(0.5);
  const std::array<double, 1> bounds{1.0};
  registry.histogram("c.hist", bounds).observe(0.25);
  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.counter\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c.hist\""), std::string::npos);
  // Braces balance — cheap structural sanity without a JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Metrics, ConcurrentCountingLosesNothing) {
  ObsQuiescer quiesce;
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      obs::Counter& counter = registry.counter("test.concurrent.counter");
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(registry.counter("test.concurrent.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------- tracing ---

TEST(Trace, SpanIsFreeWhileDisabled) {
  ObsQuiescer quiesce;
  obs::Tracer::global().disable();
  obs::Tracer::global().reset();
  {
    obs::Span span("obs_test.disabled", "test");
    span.arg("k", std::int64_t{1});
  }
  obs::trace_instant("obs_test.disabled_instant", "test");
  EXPECT_EQ(obs::Tracer::global().recorded_events(), 0u);
}

TEST(Trace, SpansAndInstantsExportAsChromeTraceEvents) {
  ObsQuiescer quiesce;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  tracer.enable();
  {
    obs::Span span("obs_test.span", "test");
    span.arg("states", std::int64_t{12});
    span.arg("rho", 0.25);
    span.arg("status", std::string_view("converged"));
  }
  obs::trace_instant("obs_test.instant", "test", "rho", 0.5);
  tracer.disable();
  ASSERT_EQ(tracer.recorded_events(), 2u);

  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  const std::string json = jsonl.str();
  EXPECT_NE(json.find("\"name\":\"obs_test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"states\":12"), std::string::npos);
  EXPECT_NE(json.find("\"rho\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"converged\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  // JSONL: exactly one line per recorded event.
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 2);

  tracer.reset();
  EXPECT_EQ(tracer.recorded_events(), 0u);
}

TEST(Trace, EachThreadRecordsIntoItsOwnRing) {
  ObsQuiescer quiesce;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  tracer.enable();
  constexpr int kThreads = 3;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::Span span("obs_test.worker", "test");
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  tracer.disable();
  EXPECT_GE(tracer.recorded_events(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  // Exported events from different threads carry different tids.
  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  const std::string text = jsonl.str();
  std::set<std::string> tids;
  for (std::size_t at = text.find("\"tid\":"); at != std::string::npos;
       at = text.find("\"tid\":", at + 1)) {
    tids.insert(text.substr(at + 6, text.find_first_of(",}", at + 6) -
                                        (at + 6)));
  }
  EXPECT_GE(tids.size(), static_cast<std::size_t>(kThreads));
  tracer.reset();
}

TEST(Trace, FullRingDropsAndCountsInsteadOfOverwriting) {
  ObsQuiescer quiesce;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  const std::uint64_t dropped_before = tracer.dropped_events();
  tracer.enable(/*events_per_thread=*/4);
  // A fresh thread gets a fresh 4-slot ring; the 6 overflow spans must be
  // dropped (and counted), never overwrite the 4 recorded ones.
  std::thread burst([] {
    for (int i = 0; i < 10; ++i) {
      obs::Span span("obs_test.burst", "test");
    }
  });
  burst.join();
  tracer.disable();
  EXPECT_EQ(tracer.dropped_events() - dropped_before, 6u);
  // Restore the default ring size for threads created by later tests.
  tracer.enable();
  tracer.disable();
  tracer.reset();
}

// ------------------------------------------------------------ manifest ---

TEST(Manifest, CapturesArgvBuildInfoAndHardware) {
  const char* argv[] = {"/usr/bin/bench_fake", "--threads", "2", "--quick"};
  const obs::RunManifest manifest = obs::make_run_manifest(4, argv);
  EXPECT_EQ(manifest.binary, "/usr/bin/bench_fake");
  ASSERT_EQ(manifest.args.size(), 3u);
  EXPECT_EQ(manifest.args[0], "--threads");
  EXPECT_EQ(manifest.args[2], "--quick");
  EXPECT_FALSE(manifest.git_sha.empty());
  EXPECT_FALSE(manifest.compiler.empty());
  EXPECT_GT(manifest.hardware_threads, 0);
  EXPECT_FALSE(manifest.started_at_utc.empty());
}

TEST(Manifest, JsonEmbedsMetricsSnapshotAndOutputs) {
  ObsQuiescer quiesce;
  obs::set_metrics_enabled(true);
  const char* argv[] = {"bench_fake", "--alpha=0.2"};
  obs::RunManifest manifest = obs::make_run_manifest(2, argv);
  manifest.outputs.emplace_back("csv", "out/table2.csv");
  manifest.elapsed_seconds = 1.5;

  obs::MetricsRegistry registry;
  registry.counter("mdp.cache.hits").add(9);
  std::ostringstream out;
  obs::write_manifest_json(out, manifest, registry.snapshot());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"binary\""), std::string::npos);
  EXPECT_NE(json.find("bench_fake"), std::string::npos);
  EXPECT_NE(json.find("--alpha=0.2"), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"mdp.cache.hits\": 9"), std::string::npos);
  EXPECT_NE(json.find("table2.csv"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// Regression: re-registering a histogram under the same name with
// DIFFERENT bounds must keep the original buckets (stable addresses, no
// silent re-bucketing) and surface the clash as a counter.
TEST(Metrics, HistogramBoundMismatchKeepsOriginalAndCountsConflict) {
  ObsQuiescer quiesce;
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::array<double, 2> bounds{1.0, 2.0};
  obs::Histogram& original =
      registry.histogram("test.obs.bound_mismatch", bounds);
  const std::uint64_t before =
      registry.counter("obs.metrics.histogram_bound_conflicts").value();

  const std::array<double, 3> other{0.5, 1.5, 9.0};
  obs::Histogram& clashed =
      registry.histogram("test.obs.bound_mismatch", other);
  EXPECT_EQ(&original, &clashed);
  ASSERT_EQ(clashed.bounds().size(), 2u);
  EXPECT_EQ(clashed.bounds()[0], 1.0);
  EXPECT_EQ(registry.counter("obs.metrics.histogram_bound_conflicts").value(),
            before + 1);

  // Identical bounds are a plain lookup, not a conflict.
  obs::Histogram& same = registry.histogram("test.obs.bound_mismatch", bounds);
  EXPECT_EQ(&original, &same);
  EXPECT_EQ(registry.counter("obs.metrics.histogram_bound_conflicts").value(),
            before + 1);
  registry.reset();
}

}  // namespace
