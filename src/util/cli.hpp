// Tiny command-line flag parser for the examples and bench binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bvc {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// Whether `--name` was present (with or without a value).
  [[nodiscard]] bool has(std::string_view name) const;

  /// The value of `--name value` / `--name=value`, if provided. A flag that
  /// is present without a value (bare switch) yields std::nullopt here; use
  /// has() to detect bare presence.
  [[nodiscard]] std::optional<std::string> value(std::string_view name) const;

  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string fallback) const;
  /// Throw std::invalid_argument when the value is present but empty,
  /// malformed, or outside the return type's range.
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const;
  [[nodiscard]] long get_long(std::string_view name, long fallback) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool fallback) const;

  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Every flag name that appeared on the command line, in order, with
  /// duplicates preserved — util::ArgParser validates against this list.
  [[nodiscard]] std::vector<std::string> flag_names() const;

 private:
  struct Flag {
    std::string name;
    std::optional<std::string> value;
  };
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace bvc
