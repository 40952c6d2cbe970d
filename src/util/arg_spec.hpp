// Declarative command-line interface for every binary.
//
// Each binary declares the flags it understands once — name, type,
// default, one-line help — and ArgParser::parse() then
//
//   * tokenizes argv (`--name value`, `--name=value`, bare switches and
//     positionals);
//   * rejects unknown flags loudly, with a did-you-mean suggestion
//     computed by edit distance over the declared names;
//   * rejects positionals beyond the number the binary declared it reads
//     (none unless allow_positionals() says otherwise), so a stray `2`
//     after `--threads 4` is not silently dropped;
//   * rejects a flag given more than once (the getters would read only
//     the first occurrence, so a later one would go unchecked or unused);
//   * eagerly validates the value of every typed flag (a malformed
//     `--threads x`, an empty `--threads=`, an out-of-range number or a
//     negative integer fails at startup, not mid-sweep);
//   * answers `--help` with a generated usage page and exits.
//
// parse() is the only way to obtain a ParsedArgs, so every flag a binary
// reads was declared and validated first.
//
// Shared flag groups (threads/csv/obs/sweep) live next to the subsystems
// that consume them — see bench/bench_common.hpp — so a bench main is
// typically:
//
//   util::ArgParser parser("bench_table2", "Reproduce Table 2 ...");
//   bench::add_threads_arg(parser);
//   bench::add_obs_args(parser);
//   parser.add({"quick", util::ArgType::kFlag, "", "setting 1 only"});
//   const util::ParsedArgs args = parser.parse(argc, argv);
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bvc::util {

enum class ArgType {
  kFlag,    ///< boolean switch; bare `--name` or `--name=true/false`
  kLong,    ///< non-negative integer value required
  kDouble,  ///< floating-point value required
  kString,  ///< any non-empty value required
};

/// One declared flag. `value_name` is the placeholder printed in help
/// ("--threads N"); empty for kFlag. `default_text` is documentation only —
/// defaults continue to live at the get_*() call sites so that declaring a
/// flag can never change a binary's behaviour.
struct ArgSpec {
  std::string name;
  ArgType type = ArgType::kString;
  std::string value_name;
  std::string help;
  std::string default_text;
};

/// A command line as ArgParser::parse() accepted it.
class ParsedArgs {
 public:
  /// Whether `--name` was present (with or without a value).
  [[nodiscard]] bool has(std::string_view name) const;

  /// The value of `--name value` / `--name=value`, if provided. A flag that
  /// is present without a value (bare switch) yields std::nullopt here; use
  /// has() to detect bare presence.
  [[nodiscard]] std::optional<std::string> value(std::string_view name) const;

  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string fallback) const;
  /// Throw std::invalid_argument when the value is present but empty,
  /// malformed, or outside the return type's range — which parse() already
  /// rules out for a flag declared with the matching type.
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const;
  [[nodiscard]] long get_long(std::string_view name, long fallback) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool fallback) const;

  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// The whole command line, argv[0] first.
  [[nodiscard]] const std::vector<std::string>& argv() const noexcept {
    return argv_;
  }

 private:
  friend class ArgParser;
  ParsedArgs() = default;

  struct Flag {
    std::string name;
    std::optional<std::string> value;
  };
  [[nodiscard]] const Flag* find(std::string_view name) const;

  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> argv_;
};

class ArgParser {
 public:
  /// `program` names the binary in usage/error text; `summary` is the one
  /// line printed under it by --help.
  ArgParser(std::string program, std::string summary);

  /// Declares one flag. Duplicate names are idempotent (first declaration
  /// wins) so shared groups can overlap without coordination.
  ArgParser& add(ArgSpec spec);
  ArgParser& add(std::initializer_list<ArgSpec> specs);

  /// Declares that the binary reads up to `count` positionals (default 0).
  ArgParser& allow_positionals(std::size_t count);

  /// Tokenizes argv, handles `--help`, and validates every flag against
  /// the declared specs. On an unknown or repeated flag, a type-invalid
  /// value or an undeclared positional: diagnostic (plus suggestion) on
  /// stderr, std::exit(2). On --help: usage on stdout, std::exit(0).
  /// Otherwise returns the parsed args.
  [[nodiscard]] ParsedArgs parse(int argc, const char* const* argv) const;

  /// The --help page (also used by the error path's "run --help" hint).
  void print_help(std::ostream& out) const;

  /// The closest declared name by edit distance, or "" when nothing is
  /// close enough to plausibly be a typo. Exposed for tests.
  [[nodiscard]] std::string suggestion(std::string_view unknown) const;

 private:
  [[nodiscard]] const ArgSpec* find(std::string_view name) const;

  std::string program_;
  std::string summary_;
  std::vector<ArgSpec> specs_;
  std::size_t max_positionals_ = 0;
};

}  // namespace bvc::util
