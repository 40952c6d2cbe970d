// Run manifests: a JSON stamp written next to every bench run's CSV/JSON
// output so a produced number can always be traced back to the exact
// binary, source revision, build flags, CLI arguments, and metric totals
// that produced it. Model-checking reproductions live or die on this kind
// of auditability — a table cell without provenance is a rumor.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace bvc::obs {

struct RunManifest {
  std::string binary;              ///< argv[0]
  std::vector<std::string> args;   ///< argv[1..]
  std::string git_sha;             ///< stamped at configure time
  std::string build_type;          ///< CMAKE_BUILD_TYPE
  std::string compiler;            ///< __VERSION__
  int hardware_threads = 0;        ///< std::thread::hardware_concurrency
  std::string started_at_utc;      ///< ISO-8601, wall clock
  double elapsed_seconds = 0.0;    ///< filled in just before writing
  /// Output artifacts this run produced, as (kind, path) pairs —
  /// e.g. ("csv", "table2.csv"), ("trace", "table2.trace.json").
  std::vector<std::pair<std::string, std::string>> outputs;
  /// Free-form (key, value) provenance notes — e.g. the sweep layer stamps
  /// ("cells_on_file", "12"), ("cells_computed", "30") so a resumed run is
  /// distinguishable from a straight-through one.
  std::vector<std::pair<std::string, std::string>> annotations;
};

/// Collects everything knowable at startup (argv, git SHA, build info,
/// hardware threads, start timestamp).
[[nodiscard]] RunManifest make_run_manifest(int argc, const char* const* argv);

/// One JSON object; embeds `metrics` (the final MetricsRegistry snapshot)
/// so the manifest alone explains cache efficacy and solver effort.
void write_manifest_json(std::ostream& out, const RunManifest& manifest,
                         const MetricsSnapshot& metrics);

}  // namespace bvc::obs
