#include "trace_fold.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "svc/json.hpp"

namespace perfbench {

namespace {

std::int64_t micros_to_ns(double micros) {
  return static_cast<std::int64_t>(std::llround(micros * 1e3));
}

}  // namespace

double SpanEvent::arg_number(const std::string& key, double fallback) const {
  const auto it = args.find(key);
  if (it == args.end()) {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  return end == it->second.c_str() ? fallback : value;
}

std::string SpanEvent::arg_string(const std::string& key) const {
  const auto it = args.find(key);
  if (it == args.end()) {
    return {};
  }
  const std::optional<bvc::svc::Json> value =
      bvc::svc::Json::parse(it->second);
  return value && value->is_string() ? value->as_string() : it->second;
}

std::vector<SpanEvent> collect_spans(const bvc::obs::Tracer& tracer) {
  std::ostringstream out;
  tracer.write_jsonl(out);
  return parse_spans(out.str());
}

std::vector<SpanEvent> parse_spans(const std::string& jsonl) {
  std::vector<SpanEvent> spans;
  std::unordered_map<std::uint32_t, std::size_t> next_order;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<bvc::svc::Json> event = bvc::svc::Json::parse(line);
    if (!event || !event->is_object() || event->string_or("ph", "") != "X") {
      continue;
    }
    SpanEvent span;
    span.name = event->string_or("name", "?");
    span.tid = static_cast<std::uint32_t>(event->number_or("tid", 0.0));
    span.start_ns = micros_to_ns(event->number_or("ts", 0.0));
    span.end_ns = span.start_ns + micros_to_ns(event->number_or("dur", 0.0));
    span.order = next_order[span.tid]++;
    if (const bvc::svc::Json* args = event->find("args");
        args != nullptr && args->is_object()) {
      for (const auto& [key, value] : args->members()) {
        span.args[key] = value.dump();
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

void fold_self_times(std::vector<SpanEvent>& spans) {
  // Per thread, in (start asc, end desc, order desc) order: a span's
  // children are exactly the spans after it that start before it ends and
  // end no later than it does.
  std::vector<std::size_t> index(spans.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    index[i] = i;
  }
  std::sort(index.begin(), index.end(), [&](std::size_t a, std::size_t b) {
    const SpanEvent& x = spans[a];
    const SpanEvent& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    if (x.end_ns != y.end_ns) return x.end_ns > y.end_ns;
    return x.order > y.order;
  });
  for (std::size_t p = 0; p < index.size(); ++p) {
    SpanEvent& parent = spans[index[p]];
    std::int64_t covered = 0;
    std::int64_t run_begin = 0;
    std::int64_t run_end = 0;
    bool in_run = false;
    for (std::size_t c = p + 1; c < index.size(); ++c) {
      const SpanEvent& child = spans[index[c]];
      if (child.tid != parent.tid || child.start_ns >= parent.end_ns) {
        break;
      }
      if (child.end_ns > parent.end_ns) {
        continue;  // overlaps the parent's end: not nested inside it
      }
      // Children arrive sorted by start, so the union is one sweep.
      if (in_run && child.start_ns <= run_end) {
        run_end = std::max(run_end, child.end_ns);
      } else {
        if (in_run) {
          covered += run_end - run_begin;
        }
        run_begin = child.start_ns;
        run_end = child.end_ns;
        in_run = true;
      }
    }
    if (in_run) {
      covered += run_end - run_begin;
    }
    parent.self_s = static_cast<double>(
                        (parent.end_ns - parent.start_ns) - covered) *
                    1e-9;
    // run_end is the latest end among the children.
    parent.tail_s =
        in_run ? static_cast<double>(parent.end_ns - run_end) * 1e-9 : 0.0;
  }
}

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<SpanEvent>& spans) {
  std::map<std::string, NameTotals> totals;
  for (const SpanEvent& span : spans) {
    NameTotals& entry = totals[span.name];
    ++entry.count;
    entry.total_s += span.duration_s();
    entry.self_s += span.self_s;
  }
  return totals;
}

}  // namespace perfbench
