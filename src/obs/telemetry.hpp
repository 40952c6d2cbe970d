// Telemetry directory: periodic on-disk trace flushes of a long-running
// process, and their offline merge.
//
// bvcd `--telemetry-dir` runs a TelemetryFlusher: a background thread that
// every 500 ms appends the tracer's newly published events to
// `<label>.<pid>.trace.jsonl`, each event stamped with the real pid. Its
// metrics need no file here: `GET /v1/metrics` serves the live snapshot
// and `--manifest-out` records the final one. `bvc-cli merge` folds the
// directory — one daemon incarnation per pid, e.g. across restarts — with
// write_merged_chrome_trace into ONE Chrome trace whose events carry each
// writer's pid, with `process_name` metadata rows so viewers show one
// labeled lane per process. Per-process trace clocks start at each
// process's own epoch, so lanes are individually — not mutually —
// time-aligned (documented in docs/OBSERVABILITY.md).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bvc::obs {

struct TelemetryConfig {
  std::string dir;              ///< must exist; the owner creates it
  std::string label = "worker"; ///< lane label, e.g. "bvcd"
};

/// Background flusher owned by a long-running process. Construction
/// switches tracing on (the flushes need a live source), starts a fresh
/// trace file and the thread; destruction performs a final flush.
class TelemetryFlusher {
 public:
  explicit TelemetryFlusher(TelemetryConfig config);
  ~TelemetryFlusher();

  TelemetryFlusher(const TelemetryFlusher&) = delete;
  TelemetryFlusher& operator=(const TelemetryFlusher&) = delete;

  /// Synchronous flush (also what the background thread calls; the two
  /// serialize).
  void flush();

 private:
  std::string trace_path_;
  std::mutex flush_mutex_;  ///< guards trace_cursor_ and the trace file
  std::vector<std::size_t> trace_cursor_;
  std::uint32_t pid_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

struct MergedTrace {
  std::size_t files = 0;  ///< trace files merged
  std::string error;      ///< why nothing was merged, when files == 0
};

/// One Chrome trace spanning every process: each trace-jsonl in `dir`
/// verbatim in its own pid lane with a process_name metadata row. When
/// `dir` cannot be scanned or holds no trace file, writes nothing and
/// returns 0 files with the reason.
[[nodiscard]] MergedTrace write_merged_chrome_trace(std::ostream& out,
                                                    const std::string& dir);

}  // namespace bvc::obs
