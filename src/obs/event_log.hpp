// The event log: every operational event a subsystem reports (a job
// submitted, a journal it cannot write, a handler that threw) is one
// human-readable line on stderr,
//
//   [subsystem] message key=value ...
//
// and a deployment that wants the log in a file redirects stderr.
//
// Discipline:
//
//   * Each record is formatted, written and flushed under one lock, so
//     concurrent writers never interleave their lines, and a record written
//     right before a crash survives it (the checkpoint layer logs right
//     before a deliberate SIGKILL).
//   * Rate limiting is per subsystem: at most kLogRateLimitPerSec records
//     per subsystem per one-second window; excess records are dropped and
//     summarized in one line when the window rolls, so a failure loop (an
//     HTTP handler that throws on every request) cannot flood stderr.
//   * log_event() never throws and never touches stdout — bench tables stay
//     byte-stable.
//
// docs/OBSERVABILITY.md §"Event log".
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>

namespace bvc::obs {

/// One key=value attachment. The key must be a string literal (or otherwise
/// outlive the log_event() call); values are copied.
class LogField {
 public:
  LogField(const char* key, std::string_view value)
      : key_(key), kind_(Kind::kString), text_(value) {}
  LogField(const char* key, const char* value)
      : LogField(key, std::string_view(value != nullptr ? value : "")) {}
  LogField(const char* key, const std::string& value)
      : LogField(key, std::string_view(value)) {}
  LogField(const char* key, double value)
      : key_(key), kind_(Kind::kDouble), number_(value) {}
  LogField(const char* key, bool value)
      : key_(key), kind_(Kind::kBool), flag_(value) {}
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  LogField(const char* key, T value)
      : key_(key) {
    if constexpr (std::is_signed_v<T>) {
      kind_ = Kind::kInt;
      int_ = static_cast<std::int64_t>(value);
    } else {
      kind_ = Kind::kUint;
      uint_ = static_cast<std::uint64_t>(value);
    }
  }

  /// Writes ` key=value`: strings verbatim, doubles as %g, bools as
  /// true/false.
  void print(std::FILE* out) const;

 private:
  enum class Kind { kString, kDouble, kInt, kUint, kBool };

  const char* key_;
  Kind kind_ = Kind::kString;
  std::string text_;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  bool flag_ = false;
};

/// Records one subsystem may emit per one-second window.
inline constexpr std::uint32_t kLogRateLimitPerSec = 200;

/// Writes one record to stderr, or drops it when `subsystem` is over its
/// rate limit. Never throws; write errors are swallowed.
void log_event(const char* subsystem, std::string_view message,
               std::initializer_list<LogField> fields = {}) noexcept;

}  // namespace bvc::obs
