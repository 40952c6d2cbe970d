// Folding an obs::Tracer recording into per-layer self time.
//
// A span's self time is its duration minus the union of the intervals of
// the spans nested inside it on the same thread ("children"). Children may
// overlap each other (a hand-built or merged trace can have overlapping
// siblings); the union counts shared time once. Spans on other threads
// never subtract: a pool task running beside a caller's span is parallel
// work, not a child.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct SpanEvent {
  std::string name;
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Recording position on its thread: an inner span ends, and so is
  /// recorded, before the span around it. Breaks ties between spans with
  /// identical intervals (the later-recorded one is the parent).
  std::size_t order = 0;
  std::map<std::string, std::string> args;  ///< raw JSON values by key
  double self_s = 0.0;                      ///< filled by fold_self_times
  /// Self time after the last child ended (0 without children); filled by
  /// fold_self_times. For a batch item this is the bookkeeping that
  /// follows its solve, e.g. a journal append.
  double tail_s = 0.0;

  [[nodiscard]] double duration_s() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
  [[nodiscard]] double arg_number(const std::string& key,
                                  double fallback = 0.0) const;
  [[nodiscard]] std::string arg_string(const std::string& key) const;
};

/// Every complete span `tracer` holds (instant events are skipped).
[[nodiscard]] std::vector<SpanEvent> collect_spans(
    const bvc::obs::Tracer& tracer);

/// Parses Tracer::write_jsonl output into spans.
[[nodiscard]] std::vector<SpanEvent> parse_spans(const std::string& jsonl);

/// Sets SpanEvent::self_s on every span.
void fold_self_times(std::vector<SpanEvent>& spans);

/// Totals of one span name.
struct NameTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Per-name totals over `spans`.
[[nodiscard]] std::map<std::string, NameTotals> totals_by_name(
    const std::vector<SpanEvent>& spans);

}  // namespace perfbench
