#include "obs/event_log.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "obs/json.hpp"

namespace bvc::obs {
namespace {

/// Monotonic seconds for rate-limit windows (cheap, never goes backwards).
double steady_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall-clock milliseconds since the Unix epoch for record timestamps.
std::uint64_t wall_ms() {
  using namespace std::chrono;
  return static_cast<std::uint64_t>(
      duration_cast<milliseconds>(system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string_view to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

std::optional<LogLevel> parse_log_level(std::string_view text) noexcept {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warn" || text == "warning") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  return std::nullopt;
}

bool EventLog::configure(LogConfig config) {
  std::FILE* file = nullptr;
  if (!config.path.empty()) {
    file = std::fopen(config.path.c_str(), "w");
    if (file == nullptr) return false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (owns_sink_ && sink_ != nullptr) {
    std::fclose(static_cast<std::FILE*>(sink_));
  }
  sink_ = file;
  owns_sink_ = file != nullptr;
  config_ = std::move(config);
  min_level_.store(static_cast<int>(config_.min_level),
                   std::memory_order_relaxed);
  windows_.clear();
  emitted_.store(0, std::memory_order_relaxed);
  suppressed_.store(0, std::memory_order_relaxed);
  return true;
}

void EventLog::write(LogLevel level, const char* subsystem,
                     std::string_view message,
                     std::initializer_list<LogField> fields) noexcept {
  if (!enabled(level)) return;
  try {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (config_.rate_limit_per_sec > 0) {
      Window& window = windows_[std::string(subsystem)];
      const double now = steady_seconds();
      if (now - window.start >= 1.0) {
        if (window.suppressed > 0) {
          char summary[96];
          std::snprintf(summary, sizeof(summary),
                        "rate limit: suppressed %" PRIu64
                        " records in the last window",
                        window.suppressed);
          emit_locked(LogLevel::kWarn, subsystem, summary, {});
        }
        window.start = now;
        window.count = 0;
        window.suppressed = 0;
      }
      if (window.count >= config_.rate_limit_per_sec) {
        ++window.suppressed;
        suppressed_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      ++window.count;
    }
    emit_locked(level, subsystem, message, fields);
    emitted_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Logging must never take the process down; drop the record.
  }
}

void EventLog::emit_locked(LogLevel level, const char* subsystem,
                           std::string_view message,
                           std::initializer_list<LogField> fields) {
  std::FILE* out =
      sink_ != nullptr ? static_cast<std::FILE*>(sink_) : stderr;
  if (config_.path.empty()) {
    // Human-readable: `[subsystem] message key=value ...`
    std::fprintf(out, "[%s] %.*s", subsystem,
                 static_cast<int>(message.size()), message.data());
    for (const LogField& field : fields) {
      std::fprintf(out, " %s=", field.key_);
      switch (field.kind_) {
        case LogField::Kind::kString:
          std::fprintf(out, "%s", field.text_.c_str());
          break;
        case LogField::Kind::kDouble:
          std::fprintf(out, "%g", field.number_);
          break;
        case LogField::Kind::kInt:
          std::fprintf(out, "%" PRId64, field.int_);
          break;
        case LogField::Kind::kUint:
          std::fprintf(out, "%" PRIu64, field.uint_);
          break;
        case LogField::Kind::kBool:
          std::fputs(field.flag_ ? "true" : "false", out);
          break;
      }
    }
    std::fputc('\n', out);
  } else {
    // Structured JSONL.
    std::string line = "{\"ts_ms\":" + std::to_string(wall_ms()) +
                       ",\"level\":\"" + std::string(to_string(level)) +
                       "\",\"subsystem\":";
    append_json_escaped(line, subsystem);
    line += ",\"msg\":";
    append_json_escaped(line, message);
    if (fields.size() > 0) {
      line += ",\"fields\":{";
      bool first = true;
      for (const LogField& field : fields) {
        line += first ? "" : ",";
        first = false;
        append_json_escaped(line, field.key_);
        line += ':';
        switch (field.kind_) {
          case LogField::Kind::kString:
            append_json_escaped(line, field.text_);
            break;
          case LogField::Kind::kDouble:
            append_json_number(line, field.number_);
            break;
          case LogField::Kind::kInt:
            line += std::to_string(field.int_);
            break;
          case LogField::Kind::kUint:
            line += std::to_string(field.uint_);
            break;
          case LogField::Kind::kBool:
            line += field.flag_ ? "true" : "false";
            break;
        }
      }
      line += '}';
    }
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), out);
  }
  // Flush per record: these are rare operational events and must survive a
  // crash (the checkpoint layer logs right before a deliberate SIGKILL).
  std::fflush(out);
}

EventLog& EventLog::global() {
  // Leaked on purpose: log sites run during static destruction.
  static EventLog* instance = new EventLog();
  return *instance;
}

}  // namespace bvc::obs
