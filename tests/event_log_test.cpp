// Tests of the event log (obs/event_log.hpp): the stderr line with every
// field kind, per-subsystem rate limiting and its summary line, and
// concurrent writers. Each test reads the lines from captured stderr and
// logs under subsystems no other test uses, so the per-subsystem rate
// windows of the process-wide log never carry over between tests.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.hpp"

namespace {

using namespace bvc;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

TEST(EventLog, LineCarriesEveryFieldKind) {
  testing::internal::CaptureStderr();
  obs::log_event("shape", "all field kinds",
                 {{"text", "va\"lue"},
                  {"name", std::string("bvcd")},
                  {"ratio", 0.25},
                  {"tiny", 1e-7},
                  {"inf", std::numeric_limits<double>::infinity()},
                  {"count", std::uint64_t{42}},
                  {"delta", std::int64_t{-7}},
                  {"thread", 3},
                  {"alive", true},
                  {"dead", false}});
  obs::log_event("shape", "no fields");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[shape] all field kinds text=va\"lue name=bvcd ratio=0.25 "
            "tiny=1e-07 inf=inf count=42 delta=-7 thread=3 alive=true "
            "dead=false\n"
            "[shape] no fields\n");
}

TEST(EventLog, RateLimiterDropsExcessPerSubsystem) {
  testing::internal::CaptureStderr();
  for (std::uint32_t i = 0; i < obs::kLogRateLimitPerSec + 50; ++i) {
    obs::log_event("rate.noisy", "spam");
  }
  // A different subsystem has its own window.
  obs::log_event("rate.quiet", "one record");
  std::vector<std::string> lines =
      split_lines(testing::internal::GetCapturedStderr());
  ASSERT_EQ(lines.size(), obs::kLogRateLimitPerSec + 1);
  for (std::uint32_t i = 0; i < obs::kLogRateLimitPerSec; ++i) {
    EXPECT_EQ(lines[i], "[rate.noisy] spam");
  }
  EXPECT_EQ(lines.back(), "[rate.quiet] one record");

  // The first record after the window rolls is preceded by one summary.
  std::this_thread::sleep_for(std::chrono::milliseconds(1010));
  testing::internal::CaptureStderr();
  obs::log_event("rate.noisy", "spam");
  lines = split_lines(testing::internal::GetCapturedStderr());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "[rate.noisy] rate limit: suppressed 50 records in the last "
            "window");
  EXPECT_EQ(lines[1], "[rate.noisy] spam");
}

TEST(EventLog, ConcurrentWritersNeverCorruptTheSink) {
  // Each thread logs under its own subsystem, below the rate limit, so every
  // record must land as one whole line.
  static constexpr const char* kSubsystems[] = {"hammer.0", "hammer.1",
                                                "hammer.2", "hammer.3"};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  static_assert(static_cast<std::uint32_t>(kPerThread) <=
                obs::kLogRateLimitPerSec);
  testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::log_event(kSubsystems[t], "record", {{"thread", t}, {"i", i}});
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const std::vector<std::string> lines =
      split_lines(testing::internal::GetCapturedStderr());
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  // Whole lines, and each thread's records in the order it wrote them.
  std::vector<int> next(kThreads, 0);
  for (const std::string& line : lines) {
    int t = -1;
    int i = -1;
    ASSERT_EQ(std::sscanf(line.c_str(), "[hammer.%d] record thread=%*d i=%d",
                          &t, &i),
              2)
        << line;
    ASSERT_GE(t, 0) << line;
    ASSERT_LT(t, kThreads) << line;
    EXPECT_EQ(line, "[hammer." + std::to_string(t) + "] record thread=" +
                        std::to_string(t) + " i=" + std::to_string(i));
    EXPECT_EQ(i, next[t]++) << line;
  }
}

}  // namespace
