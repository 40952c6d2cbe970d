// Span-based tracing with per-thread ring buffers and a JSON Lines export
// of Chrome trace events.
//
// Recording discipline:
//
//   * obs::Span is an RAII complete-span: construction stamps the start
//     time, destruction records one event covering the span's lifetime.
//     When tracing is disabled the constructor performs ONE relaxed atomic
//     load and nothing else — a Span on a hot path costs a predictable
//     branch, never a clock read.
//   * Events land in a per-thread ring buffer owned by the global Tracer.
//     Each buffer has exactly one writer (its thread), so recording is
//     lock-free and race-free; the buffer's size counter is published with
//     release stores and read with acquire loads at export time. A full
//     buffer DROPS further events (and counts them) rather than overwrite —
//     every exported event is therefore complete and ordered.
//   * Span names and categories must be string literals (or otherwise
//     outlive the Tracer): events store the pointers, not copies. Dynamic
//     context goes into args (Span::arg), which formats into a small
//     fixed-size buffer inside the event.
//
// Export: write_jsonl emits one Chrome trace-event object per line —
// "ph":"X" complete events (instants as "ph":"i"), timestamps in
// microseconds since the process trace epoch. obs::write_merged_chrome_trace
// (obs/telemetry.hpp, behind `bvc-cli merge DIR --trace-out`) wraps a
// directory of such files into one trace for chrome://tracing or
// https://ui.perfetto.dev.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace bvc::obs {

namespace detail {
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

/// The one relaxed check every tracing call performs first.
[[nodiscard]] inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Steady-clock nanoseconds since the process trace epoch (the first call).
[[nodiscard]] std::int64_t trace_now_ns() noexcept;

/// One recorded event. `args` holds a pre-formatted JSON object body
/// (`"key":value,...` without the braces), built by Span::arg.
struct TraceEvent {
  static constexpr std::size_t kArgsCapacity = 120;

  const char* name = nullptr;
  const char* category = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;  ///< -1 marks an instant event
  std::uint16_t args_len = 0;
  char args[kArgsCapacity];  // first args_len bytes valid
};

class Tracer {
 public:
  /// Turns recording on. Ring buffers are created lazily, one per recording
  /// thread, each holding `events_per_thread` events (~150 B apiece).
  /// Calling enable() again keeps existing buffers and their contents.
  void enable(std::size_t events_per_thread = 1 << 15);

  void disable() noexcept;

  /// Appends one event to the calling thread's ring (drops when full).
  /// Callers must have checked trace_enabled() — Span does.
  void record(const TraceEvent& event) noexcept;

  /// The recorded events as newline-delimited JSON objects, stamped with
  /// `pid` (0 for a standalone process; telemetry flushers pass the real
  /// pid so merged traces get one lane per process). Safe to call while
  /// other threads record; it exports the events published so far.
  void write_jsonl(std::ostream& out, std::uint32_t pid = 0) const;

  /// Incremental JSONL export: writes only events published since the last
  /// call with the same `cursor` (one consumed-index per ring, grown as
  /// threads appear). What the telemetry flusher appends every interval.
  void write_jsonl_delta(std::ostream& out, std::vector<std::size_t>& cursor,
                         std::uint32_t pid) const;

  [[nodiscard]] std::size_t recorded_events() const;
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// Rewinds every ring to empty (buffers and thread bindings survive).
  /// Only safe when no thread is concurrently recording — a test helper.
  void reset() noexcept;

  [[nodiscard]] static Tracer& global();

 private:
  struct Ring {
    explicit Ring(std::size_t capacity, std::uint32_t tid_in)
        : slots(capacity), tid(tid_in) {}
    std::vector<TraceEvent> slots;
    std::atomic<std::size_t> size{0};      // published with release stores
    std::atomic<std::uint64_t> dropped{0};
    std::uint32_t tid;
  };

  [[nodiscard]] Ring& local_ring();

  mutable std::mutex mutex_;  // guards rings_ growth only
  std::vector<std::unique_ptr<Ring>> rings_;
  std::size_t capacity_ = 1 << 15;
};

/// RAII complete-span. Costs one relaxed load when tracing is off.
class Span {
 public:
  Span(const char* name, const char* category) noexcept {
    if (trace_enabled()) {
      begin(name, category);
    }
  }
  ~Span() {
    if (active_) {
      end();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach `"key":value` to the event (no-ops when tracing is off or the
  /// args buffer is full — args are diagnostics, never load-bearing).
  void arg(const char* key, std::int64_t value) noexcept;
  void arg(const char* key, double value) noexcept;
  void arg(const char* key, std::string_view value) noexcept;

 private:
  void begin(const char* name, const char* category) noexcept;
  void end() noexcept;

  TraceEvent event_;
  bool active_ = false;
};

/// Records a zero-duration instant event (e.g. "deadline expired") with one
/// `"key":value` arg.
void trace_instant(const char* name, const char* category, const char* key,
                   std::string_view value) noexcept;
void trace_instant(const char* name, const char* category, const char* key,
                   double value) noexcept;

}  // namespace bvc::obs
