// Telemetry directory: periodic on-disk flushes of a long-running
// process's metrics and trace, and their offline merge.
//
// bvcd `--telemetry-dir` runs a TelemetryFlusher: a background thread that
// every 500 ms (a) atomically rewrites
// `<label>.<pid>.metrics.json` with a full MetricsSnapshot and (b) appends
// the tracer's newly published events to `<label>.<pid>.trace.jsonl`, each
// event stamped with the real pid. `bvc-cli merge` folds the directory —
// one daemon incarnation per pid, e.g. across restarts:
//
//   * merge_telemetry_dir sums every flushed snapshot into ONE snapshot
//     (counters add, gauges take the max, histograms add bucket-wise when
//     the bounds match — mismatches keep the first and are logged);
//   * write_merged_chrome_trace emits ONE Chrome trace whose events carry
//     each writer's pid, with `process_name` metadata rows so viewers show
//     one labeled lane per process. Per-process trace clocks start at each
//     process's own epoch, so lanes are individually — not mutually —
//     time-aligned (documented in docs/OBSERVABILITY.md).
//
// The metrics-JSON reader parses with the repo's JSON codec (obs/json.hpp)
// and accepts exactly the sections and histogram keys write_metrics_json
// emits.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace bvc::obs {

struct TelemetryConfig {
  std::string dir;              ///< created if missing
  std::string label = "worker"; ///< lane label, e.g. "bvcd"
};

/// Background flusher owned by a long-running process. Construction creates
/// the directory, switches metrics and tracing on (the flushes need live
/// sources) and starts the thread; destruction performs a final flush.
class TelemetryFlusher {
 public:
  explicit TelemetryFlusher(TelemetryConfig config);
  ~TelemetryFlusher();

  TelemetryFlusher(const TelemetryFlusher&) = delete;
  TelemetryFlusher& operator=(const TelemetryFlusher&) = delete;

  /// Synchronous flush (also what the background thread calls; the two
  /// serialize).
  void flush();

  [[nodiscard]] const std::string& metrics_path() const noexcept {
    return metrics_path_;
  }
  [[nodiscard]] const std::string& trace_path() const noexcept {
    return trace_path_;
  }

 private:
  TelemetryConfig config_;
  std::string metrics_path_;
  std::string trace_path_;
  std::mutex flush_mutex_;  ///< guards trace_cursor_ and the two files
  std::vector<std::size_t> trace_cursor_;
  std::uint32_t pid_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Parses a file produced by write_metrics_json. nullopt on I/O or parse
/// failure (callers treat a half-written file as "try next merge").
[[nodiscard]] std::optional<MetricsSnapshot> read_metrics_json(
    const std::string& path);

/// Folds `from` into `into`: counters sum, gauges keep the max, histograms
/// sum counts/sum/count when bounds match (a mismatch keeps `into`'s data
/// and is reported through obs::EventLog).
void merge_metrics(MetricsSnapshot& into, const MetricsSnapshot& from);

struct TelemetryMergeReport {
  MetricsSnapshot metrics;               ///< sum over all readable workers
  std::size_t metrics_files = 0;         ///< files merged
  std::vector<std::string> trace_files;  ///< *.trace.jsonl found (sorted)
  std::vector<std::string> errors;       ///< unreadable/unparseable files
};

/// Scans `dir` for `*.metrics.json` / `*.trace.jsonl` and sums the
/// metrics files.
[[nodiscard]] TelemetryMergeReport merge_telemetry_dir(const std::string& dir);

/// One Chrome trace spanning every process: each trace-jsonl in `dir`
/// verbatim in its own pid lane with a process_name metadata row. Returns
/// false when `dir` cannot be scanned.
bool write_merged_chrome_trace(std::ostream& out, const std::string& dir);

}  // namespace bvc::obs
