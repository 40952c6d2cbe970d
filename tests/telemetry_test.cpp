// Tests of the telemetry directory (src/obs/telemetry.cpp): the
// TelemetryFlusher's on-disk trace file, and the merged Chrome trace with
// one pid lane per writing process.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace bvc;

struct TraceQuiescer {
  ~TraceQuiescer() { obs::Tracer::global().disable(); }
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

TEST(Telemetry, FlusherWritesPidStampedFilesAndMergeFindsThem) {
  TraceQuiescer quiesce;
  TempDir dir("flusher");
  obs::Tracer::global().reset();
  {
    obs::TelemetryConfig config;
    config.dir = dir.str();
    config.label = "unit";
    obs::TelemetryFlusher flusher(config);
    EXPECT_TRUE(obs::trace_enabled());
    {
      obs::Span span("test.flush.span", "test");
    }
    flusher.flush();
  }

  // The pid-stamped trace is the only file the flusher leaves behind.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::vector<std::string>{
                       "unit." + std::to_string(::getpid()) +
                       ".trace.jsonl"}));

  // Merge reads it: one lane holding the span.
  std::ostringstream out;
  const obs::MergedTrace merged = obs::write_merged_chrome_trace(out, dir.str());
  EXPECT_EQ(merged.files, 1u);
  EXPECT_TRUE(merged.error.empty()) << merged.error;
  EXPECT_TRUE(obs::Json::parse(out.str()).has_value()) << out.str();
  EXPECT_NE(out.str().find("\"test.flush.span\""), std::string::npos);
  EXPECT_NE(out.str().find("unit (pid " + std::to_string(::getpid()) + ")"),
            std::string::npos);
  obs::Tracer::global().reset();
}

TEST(Telemetry, MergeOfAMissingOrEmptyDirectoryWritesNothing) {
  TempDir dir("empty");
  // A file that is not a trace does not count.
  write_file(dir.path / "notes.txt", "not a trace\n");
  for (const std::string& path :
       {dir.str(), (dir.path / "missing").string()}) {
    std::ostringstream out;
    const obs::MergedTrace merged = obs::write_merged_chrome_trace(out, path);
    EXPECT_EQ(merged.files, 0u) << path;
    EXPECT_NE(merged.error.find(path), std::string::npos) << merged.error;
    EXPECT_TRUE(out.str().empty()) << out.str();
  }
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
  ASSERT_EQ(obs::write_merged_chrome_trace(out, dir.str()).files, 2u);
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
  ASSERT_EQ(obs::write_merged_chrome_trace(out, dir.str()).files, 1u);
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
