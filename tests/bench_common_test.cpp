// Tests for the shared bench helpers (bench/bench_common.hpp): the
// describe_cell formatter (regression: long parameter names used to be
// silently truncated by a fixed 64-byte intermediate buffer) and the
// ObsSession flag-driven observability front door every bench binary uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace bvc;

TEST(DescribeCell, FormatsNameValuePairs) {
  EXPECT_EQ(bench::describe_cell({{"alpha", 0.2}, {"gamma", 0.45}, {"AD", 6}}),
            "alpha=0.2 gamma=0.45 AD=6");
  EXPECT_EQ(bench::describe_cell({}), "");
  EXPECT_EQ(bench::describe_cell({{"x", 0.5}}), "x=0.5");
}

TEST(DescribeCell, LongParameterNamesAreNotTruncated) {
  // Regression: the old implementation rendered into a fixed char[64] and
  // lost everything past it. A cell description exists to make a failing
  // sweep reproducible, so every byte of every name must survive.
  const std::string long_name(100, 'p');
  const std::string other_name(80, 'q');
  const std::string text = bench::describe_cell(
      {{long_name.c_str(), 1.5}, {other_name.c_str(), 2.5}});
  EXPECT_EQ(text, long_name + "=1.5 " + other_name + "=2.5");
  EXPECT_GT(text.size(), 64u);
}

TEST(DescribeCell, ValuesUseCompactFloatFormat) {
  // %g: no trailing zeros, scientific only when warranted — matches what
  // the tables print, so a cell description can be grepped from the output.
  EXPECT_EQ(bench::describe_cell({{"EB", 1000000}}), "EB=1e+06");
  EXPECT_EQ(bench::describe_cell({{"tol", 0.000001}}), "tol=1e-06");
  EXPECT_EQ(bench::describe_cell({{"n", 3}}), "n=3");
}

/// A bench command line as ObsSession receives it: parsed against the
/// shared flag groups plus the output flags the manifest lists.
util::ParsedArgs bench_args(std::vector<const char*> flags) {
  util::ArgParser parser("bench_fake", "ObsSession tests");
  bench::add_standard_bench_args(parser);
  bench::add_csv_args(parser);
  parser.add({{"quick", util::ArgType::kFlag, "", "", ""},
              {"timeline-out", util::ArgType::kString, "FILE", "", ""}});
  flags.insert(flags.begin(), "bench_fake");
  return parser.parse(static_cast<int>(flags.size()), flags.data());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ObsSession, NoFlagsLeavesInstrumentationDisabled) {
  {
    bench::ObsSession session(bench_args({"--threads", "2"}));
    EXPECT_FALSE(obs::metrics_enabled());
    EXPECT_FALSE(obs::trace_enabled());
  }
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_FALSE(obs::trace_enabled());
}

TEST(ObsSession, TraceFlagEnablesTracerAndWritesChromeTraceOnExit) {
  const std::string path =
      testing::TempDir() + "bvc_obs_session_trace_test.trace.jsonl";
  const std::string flag = "--trace-jsonl=" + path;
  obs::Tracer::global().reset();
  {
    bench::ObsSession session(bench_args({flag.c_str()}));
    ASSERT_TRUE(obs::trace_enabled());
    obs::Span span("bench_common_test.work", "test");
  }
  obs::Tracer::global().disable();
  obs::Tracer::global().reset();

  ASSERT_TRUE(std::ifstream(path).is_open())
      << "ObsSession did not write " << path;
  const std::string json = read_file(path);
  // One Chrome trace event per line.
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 1);
  EXPECT_EQ(json.rfind("{\"name\":\"bench_common_test.work\"", 0), 0u);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ObsSession, MetricsFlagEnablesMetricsAndWritesSnapshotOnExit) {
  const std::string path =
      testing::TempDir() + "bvc_obs_session_metrics_test.json";
  const std::string flag = "--manifest-out=" + path;
  {
    bench::ObsSession session(bench_args({flag.c_str()}));
    ASSERT_TRUE(obs::metrics_enabled());
    obs::MetricsRegistry::global()
        .counter("bench_common_test.sessions")
        .add();
  }
  obs::set_metrics_enabled(false);

  ASSERT_TRUE(std::ifstream(path).is_open())
      << "ObsSession did not write " << path;
  const std::string json = read_file(path);
  const std::size_t metrics = json.find("\"metrics\"");
  ASSERT_NE(metrics, std::string::npos);
  EXPECT_NE(json.find("\"counters\"", metrics), std::string::npos);
  EXPECT_NE(json.find("\"bench_common_test.sessions\"", metrics),
            std::string::npos);
}

TEST(ObsSession, ManifestRecordsNotedOutputs) {
  const std::string path =
      testing::TempDir() + "bvc_obs_session_manifest_test.json";
  const std::string trace =
      testing::TempDir() + "bvc_obs_session_manifest_test.trace.jsonl";
  const std::string manifest_flag = "--manifest-out=" + path;
  const std::string trace_flag = "--trace-jsonl=" + trace;
  {
    // The session lists every output flag on the command line itself.
    bench::ObsSession session(bench_args(
        {manifest_flag.c_str(), "--quick", "--csv=out/table.csv",
         trace_flag.c_str(), "--timeline-out", "out/timeline.json"}));
  }
  obs::set_metrics_enabled(false);
  obs::Tracer::global().disable();
  obs::Tracer::global().reset();

  ASSERT_TRUE(std::ifstream(path).is_open())
      << "ObsSession did not write " << path;
  const std::string json = read_file(path);
  EXPECT_NE(json.find("\"binary\""), std::string::npos);
  EXPECT_NE(json.find("--quick"), std::string::npos);
  EXPECT_NE(json.find("\"csv\": \"out/table.csv\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\": " + obs::json_quoted(trace)),
            std::string::npos);
  EXPECT_NE(json.find("\"timeline\": \"out/timeline.json\""),
            std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

}  // namespace
