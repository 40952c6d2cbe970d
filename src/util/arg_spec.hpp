// Declarative command-line interface on top of CliArgs.
//
// CliArgs (util/cli.hpp) is a permissive tokenizer: it accepts any
// `--name[=value]` and lets callers pull typed values out lazily. That
// permissiveness made every binary silently swallow typos (`--thread 8`
// ran single-threaded). An ArgParser closes the gap: each binary declares
// the flags it understands once — name, type, default, one-line help —
// and parse() then
//
//   * rejects unknown flags loudly, with a did-you-mean suggestion
//     computed by edit distance over the declared names;
//   * eagerly validates the value of every typed flag (a malformed
//     `--threads x`, an empty `--threads=`, an out-of-range number or a
//     negative integer fails at startup, not mid-sweep);
//   * answers `--help` with a generated usage page and exits.
//
// The returned CliArgs is the same object the binaries always consumed,
// so migrated call sites keep their get_long/get_double bodies and their
// stdout stays byte-identical for all previously valid invocations.
//
// Shared flag groups (budget/batch/csv/obs/sweep) live next to the
// subsystems that consume them — see bench/bench_common.hpp — so a bench
// main is typically:
//
//   util::ArgParser parser("bench_table2", "Reproduce Table 2 ...");
//   bench::add_standard_bench_args(parser);       // threads/budget/csv/obs
//   parser.add({"quick", util::ArgType::kFlag, "", "setting 1 only"});
//   const CliArgs args = parser.parse(argc, argv);
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/cli.hpp"

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

class ArgParser {
 public:
  /// `program` names the binary in usage/error text; `summary` is the one
  /// line printed under it by --help.
  ArgParser(std::string program, std::string summary);

  /// Declares one flag. Duplicate names are idempotent (first declaration
  /// wins) so shared groups can overlap without coordination.
  ArgParser& add(ArgSpec spec);
  ArgParser& add(std::initializer_list<ArgSpec> specs);

  /// Flags whose name starts with `prefix` pass through unvalidated —
  /// bench_solver_micro forwards `--benchmark_*` to google-benchmark.
  ArgParser& allow_prefix(std::string prefix);

  /// Tokenizes argv, handles `--help`, and validates every flag against
  /// the declared specs. On an unknown flag or a type-invalid value:
  /// diagnostic (plus suggestion) on stderr, std::exit(2). On --help:
  /// usage on stdout, std::exit(0). Otherwise returns the parsed args.
  [[nodiscard]] CliArgs parse(int argc, const char* const* argv) const;

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
  std::vector<std::string> pass_prefixes_;
};

}  // namespace bvc::util
