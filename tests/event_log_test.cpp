// Tests of obs::EventLog: level parsing and gating, JSONL record shape
// (validated with the obs JSON parser), per-subsystem rate limiting, and
// concurrent writers. Every test that reconfigures the global log restores
// the default configuration before returning.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/json.hpp"

namespace {

using namespace bvc;

/// Restores the default (stderr, info, default rate limit) configuration
/// on scope exit so the global log never leaks a file sink across tests.
struct LogQuiescer {
  ~LogQuiescer() { (void)obs::EventLog::global().configure({}); }
};

std::string temp_log_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("bvc_event_log_test_") + tag + "_" +
           std::to_string(::getpid()) + ".jsonl"))
      .string();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(EventLog, ParsesLevelsAndRejectsGarbage) {
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("warning"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("error"), obs::LogLevel::kError);
  EXPECT_FALSE(obs::parse_log_level("verbose").has_value());
  EXPECT_FALSE(obs::parse_log_level("").has_value());
  EXPECT_EQ(obs::to_string(obs::LogLevel::kWarn), "warn");
}

TEST(EventLog, LevelThresholdGatesRecords) {
  LogQuiescer quiesce;
  const std::string path = temp_log_path("gate");
  obs::LogConfig config;
  config.min_level = obs::LogLevel::kWarn;
  config.path = path;
  ASSERT_TRUE(obs::EventLog::global().configure(config));
  EXPECT_FALSE(obs::EventLog::global().enabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(obs::EventLog::global().enabled(obs::LogLevel::kError));

  obs::log_info("test", "below threshold");
  obs::log_debug("test", "far below threshold");
  obs::log_warn("test", "at threshold");
  obs::log_error("test", "above threshold");
  ASSERT_TRUE(obs::EventLog::global().configure({}));  // flush + close

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("at threshold"), std::string::npos);
  EXPECT_NE(lines[1].find("above threshold"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(EventLog, JsonlRecordsParseAndCarryTypedFields) {
  LogQuiescer quiesce;
  const std::string path = temp_log_path("shape");
  obs::LogConfig config;
  config.path = path;
  ASSERT_TRUE(obs::EventLog::global().configure(config));

  obs::log_warn("shape", "all field kinds",
                {{"text", "va\"lue"},
                 {"ratio", 0.25},
                 {"count", std::uint64_t{42}},
                 {"delta", std::int64_t{-7}},
                 {"alive", true}});
  ASSERT_TRUE(obs::EventLog::global().configure({}));

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  const std::optional<obs::Json> record = obs::Json::parse(lines[0]);
  ASSERT_TRUE(record.has_value());
  ASSERT_TRUE(record->is_object());
  EXPECT_EQ(record->string_or("level", ""), "warn");
  EXPECT_EQ(record->string_or("subsystem", ""), "shape");
  EXPECT_EQ(record->string_or("msg", ""), "all field kinds");
  EXPECT_GT(record->number_or("ts_ms", 0.0), 0.0);
  const obs::Json* fields = record->find("fields");
  ASSERT_NE(fields, nullptr);
  EXPECT_EQ(fields->string_or("text", ""), "va\"lue");
  EXPECT_EQ(fields->number_or("ratio", 0.0), 0.25);
  EXPECT_EQ(fields->number_or("count", 0.0), 42.0);
  EXPECT_EQ(fields->number_or("delta", 0.0), -7.0);
  std::filesystem::remove(path);
}

TEST(EventLog, NonFiniteDoubleFieldsStayValidJson) {
  LogQuiescer quiesce;
  const std::string path = temp_log_path("nonfinite");
  obs::LogConfig config;
  config.path = path;
  ASSERT_TRUE(obs::EventLog::global().configure(config));
  obs::log_warn("shape", "bad numbers",
                {{"nan", std::numeric_limits<double>::quiet_NaN()},
                 {"inf", std::numeric_limits<double>::infinity()}});
  ASSERT_TRUE(obs::EventLog::global().configure({}));
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(obs::Json::parse(lines[0]).has_value()) << lines[0];
  std::filesystem::remove(path);
}

TEST(EventLog, RateLimiterDropsExcessPerSubsystem) {
  LogQuiescer quiesce;
  const std::string path = temp_log_path("rate");
  obs::LogConfig config;
  config.path = path;
  config.rate_limit_per_sec = 5;
  ASSERT_TRUE(obs::EventLog::global().configure(config));
  const std::uint64_t emitted_before = obs::EventLog::global().emitted();

  for (int i = 0; i < 50; ++i) {
    obs::log_info("noisy", "spam");
  }
  // A different subsystem has its own window.
  obs::log_info("quiet", "one record");

  EXPECT_EQ(obs::EventLog::global().emitted() - emitted_before, 6u);
  EXPECT_EQ(obs::EventLog::global().suppressed(), 45u);
  ASSERT_TRUE(obs::EventLog::global().configure({}));
  std::filesystem::remove(path);
}

TEST(EventLog, ConcurrentWritersNeverCorruptTheSink) {
  LogQuiescer quiesce;
  const std::string path = temp_log_path("threads");
  obs::LogConfig config;
  config.path = path;
  config.rate_limit_per_sec = 0;  // unlimited: every record must land
  ASSERT_TRUE(obs::EventLog::global().configure(config));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::log_info("hammer", "record", {{"thread", t}, {"i", i}});
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ASSERT_TRUE(obs::EventLog::global().configure({}));

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  for (const std::string& line : lines) {
    ASSERT_TRUE(obs::Json::parse(line).has_value()) << line;
  }
  std::filesystem::remove(path);
}

}  // namespace
