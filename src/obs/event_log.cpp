#include "obs/event_log.hpp"

#include <chrono>
#include <cinttypes>
#include <limits>
#include <map>
#include <mutex>

namespace bvc::obs {
namespace {

/// Monotonic seconds for rate-limit windows (cheap, never goes backwards).
double steady_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One subsystem's rate-limit window. A new subsystem's first record opens
/// its first window.
struct Window {
  double start = -std::numeric_limits<double>::infinity();
  std::uint32_t count = 0;
  std::uint64_t suppressed = 0;
};

struct LogState {
  std::mutex mutex;
  std::map<std::string, Window, std::less<>> windows;
};

LogState& log_state() {
  // Leaked on purpose: log sites run during static destruction.
  static LogState* state = new LogState();
  return *state;
}

void emit_line(const char* subsystem, std::string_view message,
               std::initializer_list<LogField> fields) {
  std::fprintf(stderr, "[%s] %.*s", subsystem,
               static_cast<int>(message.size()), message.data());
  for (const LogField& field : fields) {
    field.print(stderr);
  }
  std::fputc('\n', stderr);
  // Flush per record: these are rare operational events and must survive a
  // crash.
  std::fflush(stderr);
}

}  // namespace

void LogField::print(std::FILE* out) const {
  std::fprintf(out, " %s=", key_);
  switch (kind_) {
    case Kind::kString:
      std::fprintf(out, "%s", text_.c_str());
      break;
    case Kind::kDouble:
      std::fprintf(out, "%g", number_);
      break;
    case Kind::kInt:
      std::fprintf(out, "%" PRId64, int_);
      break;
    case Kind::kUint:
      std::fprintf(out, "%" PRIu64, uint_);
      break;
    case Kind::kBool:
      std::fputs(flag_ ? "true" : "false", out);
      break;
  }
}

void log_event(const char* subsystem, std::string_view message,
               std::initializer_list<LogField> fields) noexcept {
  try {
    LogState& state = log_state();
    const std::lock_guard<std::mutex> lock(state.mutex);
    Window& window = state.windows[std::string(subsystem)];
    const double now = steady_seconds();
    if (now - window.start >= 1.0) {
      if (window.suppressed > 0) {
        char summary[96];
        std::snprintf(summary, sizeof(summary),
                      "rate limit: suppressed %" PRIu64
                      " records in the last window",
                      window.suppressed);
        emit_line(subsystem, summary, {});
      }
      window.start = now;
      window.count = 0;
      window.suppressed = 0;
    }
    if (window.count >= kLogRateLimitPerSec) {
      ++window.suppressed;
      return;
    }
    ++window.count;
    emit_line(subsystem, message, fields);
  } catch (...) {
    // Logging must never take the process down; drop the record.
  }
}

}  // namespace bvc::obs
