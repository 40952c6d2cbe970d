#include "obs/manifest.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <ostream>
#include <sstream>
#include <thread>

#include "obs/json.hpp"

// Stamped by src/obs/CMakeLists.txt at configure time; the fallbacks keep
// out-of-CMake builds (and IDE syntax passes) compiling.
#ifndef BVC_GIT_SHA
#define BVC_GIT_SHA "unknown"
#endif
#ifndef BVC_BUILD_TYPE
#define BVC_BUILD_TYPE "unknown"
#endif

namespace bvc::obs {

RunManifest make_run_manifest(int argc, const char* const* argv) {
  RunManifest manifest;
  if (argc > 0) {
    manifest.binary = argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    manifest.args.emplace_back(argv[i]);
  }
  manifest.git_sha = BVC_GIT_SHA;
  manifest.build_type = BVC_BUILD_TYPE;
#ifdef __VERSION__
  manifest.compiler = __VERSION__;
#else
  manifest.compiler = "unknown";
#endif
  manifest.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());

  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm utc{};
  gmtime_r(&now, &utc);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  manifest.started_at_utc = stamp;
  return manifest;
}

void write_manifest_json(std::ostream& out, const RunManifest& manifest,
                         const MetricsSnapshot& metrics) {
  out << "{\n  \"binary\": " << json_quoted(manifest.binary);
  out << ",\n  \"args\": [";
  for (std::size_t i = 0; i < manifest.args.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_quoted(manifest.args[i]);
  }
  out << "],\n  \"git_sha\": " << json_quoted(manifest.git_sha);
  out << ",\n  \"build_type\": " << json_quoted(manifest.build_type);
  out << ",\n  \"compiler\": " << json_quoted(manifest.compiler);
  out << ",\n  \"hardware_threads\": " << manifest.hardware_threads;
  out << ",\n  \"started_at_utc\": " << json_quoted(manifest.started_at_utc);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", manifest.elapsed_seconds);
  out << ",\n  \"elapsed_seconds\": " << buffer;
  const auto write_pairs =
      [&out](const std::vector<std::pair<std::string, std::string>>& pairs) {
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          out << (i == 0 ? "" : ", ") << json_quoted(pairs[i].first) << ": "
              << json_quoted(pairs[i].second);
        }
      };
  out << ",\n  \"outputs\": {";
  write_pairs(manifest.outputs);
  out << "},\n  \"annotations\": {";
  write_pairs(manifest.annotations);
  out << "},\n  \"metrics\": ";
  // Indentation mismatch with the nested writer is cosmetic; the payload
  // is for machines first.
  std::ostringstream nested;
  write_metrics_json(nested, metrics);
  std::string body = nested.str();
  while (!body.empty() && (body.back() == '\n')) {
    body.pop_back();
  }
  out << body << "\n}\n";
}

}  // namespace bvc::obs
