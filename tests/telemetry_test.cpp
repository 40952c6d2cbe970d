// Tests of the telemetry directory (src/obs/telemetry.cpp): metrics-JSON
// roundtrip through the codec-based reader, the merge rules (counters sum,
// gauges max, histograms bucket-sum on matching bounds), the
// TelemetryFlusher's on-disk files, and the merged Chrome trace with one
// pid lane per writing process.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace bvc;

struct ObsQuiescer {
  ~ObsQuiescer() {
    obs::set_metrics_enabled(false);
    obs::Tracer::global().disable();
  }
};

/// A fresh scratch directory, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("bvc_telemetry_test_") + tag + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

TEST(Telemetry, MetricsJsonRoundTripsThroughTheReader) {
  TempDir dir("roundtrip");
  obs::MetricsSnapshot snapshot;
  snapshot.counters["a.hits"] = 7;
  snapshot.gauges["b.level"] = 2.5;
  obs::Histogram::Snapshot histogram;
  histogram.bounds = {1.0, 2.0};
  histogram.counts = {1, 2, 3};
  histogram.sum = 4.5;
  histogram.count = 6;
  snapshot.histograms["c.lat"] = histogram;

  const std::filesystem::path file = dir.path / "w.1.metrics.json";
  {
    std::ofstream out(file);
    obs::write_metrics_json(out, snapshot);
  }
  const std::optional<obs::MetricsSnapshot> read =
      obs::read_metrics_json(file.string());
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->counters.at("a.hits"), 7u);
  EXPECT_EQ(read->gauges.at("b.level"), 2.5);
  const obs::Histogram::Snapshot& h = read->histograms.at("c.lat");
  EXPECT_EQ(h.bounds, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(h.sum, 4.5);
  EXPECT_EQ(h.count, 6u);
}

TEST(Telemetry, ReaderRejectsGarbage) {
  TempDir dir("garbage");
  const std::filesystem::path file = dir.path / "w.1.metrics.json";
  for (const char* bad : {
           R"({"counters":{"x": })",     // torn
           R"({"timers": {}})",           // unknown section
           R"({"histograms": {"h": {"bounds": [], "p99": 1}}})",
           R"({"gauges": {"g": inf}})",  // bare token, not JSON
           R"({"gauges": {"g": "fast"}})",  // string, not non-finite
           R"({"counters": {"c": -1}})",  // negative count
           R"({"counters": {"c": 1.5}})",  // fractional count
           R"({"counters": {"c": 1e30}})",  // beyond uint64
       }) {
    write_file(file, bad);
    EXPECT_FALSE(obs::read_metrics_json(file.string()).has_value()) << bad;
  }
  EXPECT_FALSE(obs::read_metrics_json((dir.path / "nope.json").string())
                   .has_value());
}

TEST(Telemetry, MetricsJsonRoundTripsEscapedNamesAndEdgeValues) {
  TempDir dir("edges");
  const std::string odd = "quote\" back\\slash";
  constexpr double kInf = std::numeric_limits<double>::infinity();
  obs::MetricsSnapshot snapshot;
  snapshot.counters[odd] = 3;
  snapshot.gauges[odd] = -0.0;
  snapshot.gauges["inf"] = -kInf;
  snapshot.gauges["nan"] = std::numeric_limits<double>::quiet_NaN();
  snapshot.gauges["tiny"] = 4.9406564584124654e-324;
  obs::Histogram::Snapshot histogram;
  histogram.bounds = {0.5};
  histogram.counts = {1, 1};
  histogram.sum = kInf;
  histogram.count = 2;
  snapshot.histograms[odd] = histogram;

  const std::filesystem::path file = dir.path / "w.1.metrics.json";
  {
    std::ofstream out(file);
    obs::write_metrics_json(out, snapshot);
  }
  const std::optional<obs::MetricsSnapshot> read =
      obs::read_metrics_json(file.string());
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->counters.at(odd), 3u);
  EXPECT_EQ(read->gauges.at(odd), 0.0);
  EXPECT_TRUE(std::signbit(read->gauges.at(odd)));
  EXPECT_EQ(read->gauges.at("inf"), -kInf);
  EXPECT_TRUE(std::isnan(read->gauges.at("nan")));
  EXPECT_EQ(read->gauges.at("tiny"), 4.9406564584124654e-324);
  EXPECT_EQ(read->histograms.at(odd).sum, kInf);
  EXPECT_EQ(read->histograms.at(odd).counts, histogram.counts);
}

TEST(Telemetry, MergeSumsCountersMaxesGaugesSumsMatchingHistograms) {
  obs::MetricsSnapshot into;
  into.counters["cells"] = 10;
  into.gauges["rss"] = 5.0;
  obs::Histogram::Snapshot h1;
  h1.bounds = {1.0};
  h1.counts = {2, 3};
  h1.sum = 1.0;
  h1.count = 5;
  into.histograms["lat"] = h1;

  obs::MetricsSnapshot from;
  from.counters["cells"] = 4;
  from.counters["other"] = 1;
  from.gauges["rss"] = 9.0;
  obs::Histogram::Snapshot h2 = h1;
  h2.counts = {1, 1};
  h2.sum = 0.5;
  h2.count = 2;
  from.histograms["lat"] = h2;
  // Mismatched bounds keep `into`'s data.
  obs::Histogram::Snapshot clash;
  clash.bounds = {9.0};
  clash.counts = {1, 0};
  clash.count = 1;
  into.histograms["clash"] = h1;
  from.histograms["clash"] = clash;

  obs::merge_metrics(into, from);
  EXPECT_EQ(into.counters["cells"], 14u);
  EXPECT_EQ(into.counters["other"], 1u);
  EXPECT_EQ(into.gauges["rss"], 9.0);
  EXPECT_EQ(into.histograms["lat"].counts,
            (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(into.histograms["lat"].sum, 1.5);
  EXPECT_EQ(into.histograms["lat"].count, 7u);
  EXPECT_EQ(into.histograms["clash"].counts, h1.counts);
}

TEST(Telemetry, FlusherWritesPidStampedFilesAndMergeFindsThem) {
  ObsQuiescer quiesce;
  TempDir dir("flusher");
  obs::MetricsRegistry::global().reset();
  {
    obs::TelemetryConfig config;
    config.dir = dir.str();
    config.label = "unit";
    obs::TelemetryFlusher flusher(config);
    EXPECT_TRUE(obs::metrics_enabled());
    obs::MetricsRegistry::global().counter("test.flush.cells").add(3);
    {
      obs::Span span("test.flush.span", "test");
    }
    flusher.flush();
    EXPECT_TRUE(std::filesystem::exists(flusher.metrics_path()));
    EXPECT_TRUE(std::filesystem::exists(flusher.trace_path()));
    const std::string expected_stem =
        "unit." + std::to_string(::getpid());
    EXPECT_NE(flusher.metrics_path().find(expected_stem), std::string::npos);
  }

  // Merge sees the flushed files.
  const obs::TelemetryMergeReport report =
      obs::merge_telemetry_dir(dir.str());
  EXPECT_TRUE(report.errors.empty());
  EXPECT_EQ(report.metrics_files, 1u);
  ASSERT_EQ(report.trace_files.size(), 1u);
  EXPECT_EQ(report.metrics.counters.at("test.flush.cells"), 3u);
  obs::MetricsRegistry::global().reset();
}

TEST(Telemetry, MergedChromeTraceHasOnePidLanePerWorker) {
  TempDir dir("trace");
  // Two fake daemon incarnations, pid 111 and 222, one event each (the
  // flusher's JSONL delta format: complete event objects, one per line,
  // pid stamped).
  write_file(dir.path / "bvcd.111.trace.jsonl",
             "{\"name\":\"solve\",\"cat\":\"mdp\",\"ph\":\"X\",\"ts\":1.0,"
             "\"dur\":2.0,\"pid\":111,\"tid\":1}\n");
  write_file(dir.path / "bvcd.222.trace.jsonl",
             "{\"name\":\"solve\",\"cat\":\"mdp\",\"ph\":\"X\",\"ts\":1.5,"
             "\"dur\":2.5,\"pid\":222,\"tid\":1}\n");

  std::ostringstream out;
  ASSERT_TRUE(obs::write_merged_chrome_trace(out, dir.str()));
  const std::string text = out.str();
  const std::optional<obs::Json> parsed = obs::Json::parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  const obs::Json* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int process_names = 0;
  int worker_events = 0;
  for (const obs::Json& event : events->items()) {
    const std::string name = event.string_or("name", "");
    if (name == "process_name") {
      ++process_names;
    } else if (name == "solve") {
      ++worker_events;
    }
  }
  EXPECT_EQ(process_names, 2);
  EXPECT_EQ(worker_events, 2);
  EXPECT_NE(text.find("bvcd (pid 111)"), std::string::npos);
  EXPECT_NE(text.find("bvcd (pid 222)"), std::string::npos);
}

TEST(Telemetry, MergedChromeTraceEscapesProcessLabels) {
  TempDir dir("labels");
  // Labels come from file names in the dir; the fake pid is above any real
  // pid_max.
  write_file(dir.path / "we\"ird\\.4000000000.trace.jsonl",
             "{\"name\":\"solve\",\"cat\":\"mdp\",\"ph\":\"X\",\"ts\":1.0,"
             "\"dur\":2.0,\"pid\":4000000000,\"tid\":1}\n");
  std::ostringstream out;
  ASSERT_TRUE(obs::write_merged_chrome_trace(out, dir.str()));
  const std::optional<obs::Json> parsed = obs::Json::parse(out.str());
  ASSERT_TRUE(parsed.has_value()) << out.str();
  std::vector<std::string> labels;
  for (const obs::Json& event : parsed->find("traceEvents")->items()) {
    if (event.string_or("name", "") == "process_name") {
      labels.push_back(event.find("args")->string_or("name", ""));
    }
  }
  EXPECT_EQ(labels,
            (std::vector<std::string>{"we\"ird\\ (pid 4000000000)"}));
}

}  // namespace
