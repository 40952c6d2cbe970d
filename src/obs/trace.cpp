#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <ostream>

#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace bvc::obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point trace_epoch() noexcept {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

void write_event_json(std::ostream& out, const TraceEvent& event,
                      std::uint32_t tid, std::uint32_t pid) {
  char buffer[64];
  out << "{\"name\":" << json_quoted(event.name != nullptr ? event.name : "?")
      << ",\"cat\":"
      << json_quoted(event.category != nullptr ? event.category : "?");
  if (event.duration_ns < 0) {
    out << ",\"ph\":\"i\",\"s\":\"t\"";
  } else {
    std::snprintf(buffer, sizeof(buffer), ",\"ph\":\"X\",\"dur\":%.3f",
                  static_cast<double>(event.duration_ns) * 1e-3);
    out << buffer;
  }
  std::snprintf(buffer, sizeof(buffer), ",\"ts\":%.3f,\"pid\":%u,\"tid\":%u",
                static_cast<double>(event.start_ns) * 1e-3, pid, tid);
  out << buffer << ",\"args\":{";
  out.write(event.args, event.args_len);
  out << "}}";
}

/// Satellite: ring-buffer drops must never be silent. Bumps the
/// `obs.trace.dropped_spans` counter and warns ONCE per process through
/// the EventLog. Called from record(), which is noexcept — everything that
/// can throw (first-time counter registration) is contained here.
void note_drop() noexcept {
  try {
    if (metrics_enabled()) {
      static Counter& dropped =
          MetricsRegistry::global().counter("obs.trace.dropped_spans");
      dropped.add();
    }
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      log_warn("obs",
               "trace ring buffer full; further spans on this thread are "
               "being dropped — the exported trace is truncated");
    }
  } catch (...) {
    // Never let accounting for a dropped span take down a recording thread.
  }
}

}  // namespace

std::int64_t trace_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              trace_epoch())
      .count();
}

// ------------------------------------------------------------------ Tracer

void Tracer::enable(std::size_t events_per_thread) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (events_per_thread > 0) {
      capacity_ = events_per_thread;
    }
  }
  (void)trace_epoch();  // pin the epoch before the first event
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() noexcept {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

Tracer::Ring& Tracer::local_ring() {
  struct Binding {
    Tracer* owner = nullptr;
    Ring* ring = nullptr;
  };
  thread_local Binding binding;
  if (binding.owner != this) {
    const std::lock_guard<std::mutex> lock(mutex_);
    rings_.push_back(std::make_unique<Ring>(
        capacity_, static_cast<std::uint32_t>(rings_.size() + 1)));
    binding.owner = this;
    binding.ring = rings_.back().get();
  }
  return *binding.ring;
}

void Tracer::record(const TraceEvent& event) noexcept {
  Ring& ring = local_ring();
  const std::size_t size = ring.size.load(std::memory_order_relaxed);
  if (size >= ring.slots.size()) {
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
    note_drop();
    return;
  }
  ring.slots[size] = event;
  // Publish: the slot write above happens-before any reader that acquires
  // the new size.
  ring.size.store(size + 1, std::memory_order_release);
}

void Tracer::write_jsonl(std::ostream& out, std::uint32_t pid) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) {
    const std::size_t n = ring->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      write_event_json(out, ring->slots[i], ring->tid, pid);
      out << "\n";
    }
  }
}

void Tracer::write_jsonl_delta(std::ostream& out,
                               std::vector<std::size_t>& cursor,
                               std::uint32_t pid) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (cursor.size() < rings_.size()) {
    cursor.resize(rings_.size(), 0);
  }
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const Ring& ring = *rings_[r];
    const std::size_t n = ring.size.load(std::memory_order_acquire);
    for (std::size_t i = cursor[r]; i < n; ++i) {
      write_event_json(out, ring.slots[i], ring.tid, pid);
      out << "\n";
    }
    cursor[r] = n;
  }
}

std::size_t Tracer::recorded_events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->size.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t Tracer::dropped_events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

void Tracer::reset() noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) {
    ring->size.store(0, std::memory_order_release);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();  // never destroyed: worker threads
                                         // may outlive static teardown
  return *tracer;
}

// -------------------------------------------------------------------- Span

void Span::begin(const char* name, const char* category) noexcept {
  event_.name = name;
  event_.category = category;
  event_.start_ns = trace_now_ns();
  event_.duration_ns = 0;
  event_.args_len = 0;
  active_ = true;
}

void Span::end() noexcept {
  event_.duration_ns = trace_now_ns() - event_.start_ns;
  if (trace_enabled()) {
    Tracer::global().record(event_);
  }
  active_ = false;
}

namespace {

/// Appends `"key":<formatted>` (comma-separated) into an event's args
/// buffer; silently keeps the buffer unchanged when the fragment is too
/// long to fit.
void append_arg(TraceEvent& event, const char* key, const char* formatted) {
  char fragment[TraceEvent::kArgsCapacity];
  const int wrote =
      std::snprintf(fragment, sizeof(fragment), "%s\"%s\":%s",
                    event.args_len > 0 ? "," : "", key, formatted);
  if (wrote < 0) {
    return;
  }
  const auto length = static_cast<std::size_t>(wrote);
  if (length >= sizeof(fragment) ||
      event.args_len + length > TraceEvent::kArgsCapacity) {
    return;
  }
  std::memcpy(event.args + event.args_len, fragment, length);
  event.args_len = static_cast<std::uint16_t>(event.args_len + length);
}

/// Appends `"key":"escaped value"`, truncating oversized values. This is
/// the one escaper outside obs/json: spans record on paths that must not
/// allocate or throw, so it writes into a fixed buffer and blanks control
/// characters.
void append_string_arg(TraceEvent& event, const char* key,
                       std::string_view value) {
  char formatted[96];
  std::size_t at = 0;
  formatted[at++] = '"';
  for (const char c : value) {
    if (at + 4 >= sizeof(formatted)) {
      break;
    }
    if (c == '"' || c == '\\') {
      formatted[at++] = '\\';
      formatted[at++] = c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      formatted[at++] = ' ';
    } else {
      formatted[at++] = c;
    }
  }
  formatted[at++] = '"';
  formatted[at] = '\0';
  append_arg(event, key, formatted);
}

}  // namespace

void Span::arg(const char* key, std::int64_t value) noexcept {
  if (!active_) {
    return;
  }
  char formatted[32];
  std::snprintf(formatted, sizeof(formatted), "%lld",
                static_cast<long long>(value));
  append_arg(event_, key, formatted);
}

void Span::arg(const char* key, double value) noexcept {
  if (!active_) {
    return;
  }
  char formatted[32];
  std::snprintf(formatted, sizeof(formatted), "%.6g", value);
  append_arg(event_, key, formatted);
}

void Span::arg(const char* key, std::string_view value) noexcept {
  if (!active_) {
    return;
  }
  append_string_arg(event_, key, value);
}

// ---------------------------------------------------------------- Instants

void trace_instant(const char* name, const char* category) noexcept {
  trace_instant(name, category, nullptr, {});
}

void trace_instant(const char* name, const char* category, const char* key,
                   std::string_view value) noexcept {
  if (!trace_enabled()) {
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.start_ns = trace_now_ns();
  event.duration_ns = -1;  // rendered as "ph":"i"
  event.args_len = 0;
  if (key != nullptr) {
    append_string_arg(event, key, value);
  }
  Tracer::global().record(event);
}

void trace_instant(const char* name, const char* category, const char* key,
                   double value) noexcept {
  if (!trace_enabled()) {
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.start_ns = trace_now_ns();
  event.duration_ns = -1;
  event.args_len = 0;
  char formatted[32];
  std::snprintf(formatted, sizeof(formatted), "%.6g", value);
  append_arg(event, key, formatted);
  Tracer::global().record(event);
}

}  // namespace bvc::obs
