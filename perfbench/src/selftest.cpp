// Self-test of the trace folder (perfbench --selftest): hand-built traces
// with nested spans, overlapping siblings, identical intervals and several
// threads, plus one round trip through the live obs::Tracer.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "trace_fold.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want,
                 double tolerance = 1e-12) {
  if (std::abs(got - want) > tolerance) {
    std::fprintf(stderr, "selftest: %s = %.9g, want %.9g\n", what, got, want);
    ++failures;
  }
}

std::string event(const char* name, int tid, double ts_us, double dur_us) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "{\"name\":\"%s\",\"cat\":\"t\",\"ph\":\"X\",\"dur\":%.3f,"
                "\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"sweeps\":7}}\n",
                name, dur_us, ts_us, tid);
  return line;
}

const SpanEvent* find(const std::vector<SpanEvent>& spans, const char* name) {
  for (const SpanEvent& span : spans) {
    if (span.name == name) {
      return &span;
    }
  }
  std::fprintf(stderr, "selftest: span %s missing\n", name);
  ++failures;
  return nullptr;
}

void expect_self(const std::vector<SpanEvent>& spans, const char* name,
                 double want_us) {
  if (const SpanEvent* span = find(spans, name)) {
    expect_near(name, span->self_s * 1e6, want_us, 1e-6);
  }
}

void hand_built_trace() {
  // Lines appear in recording order per thread: children before parents.
  std::string jsonl;
  // Thread 1: A [0,100] holds B [10,30] (with grandchild E [12,14]), C
  // [20,50] overlapping B, and D [60,70]; I [90,120] crosses A's end.
  jsonl += event("E", 1, 12, 2);
  jsonl += event("B", 1, 10, 20);
  jsonl += event("C", 1, 20, 30);
  jsonl += event("D", 1, 60, 10);
  jsonl += event("A", 1, 0, 100);
  jsonl += event("I", 1, 90, 30);
  // Thread 2 overlaps A in time but is another thread: no subtraction.
  jsonl += event("F", 2, 5, 90);
  // Thread 3: identical intervals; H was recorded first, so it is the child.
  jsonl += event("H", 3, 0, 10);
  jsonl += event("G", 3, 0, 10);
  // An instant event is ignored.
  jsonl += "{\"name\":\"tick\",\"cat\":\"t\",\"ph\":\"i\",\"s\":\"t\","
           "\"ts\":1.000,\"pid\":0,\"tid\":1,\"args\":{}}\n";

  std::vector<SpanEvent> spans = parse_spans(jsonl);
  expect_near("span count", static_cast<double>(spans.size()), 9.0);
  fold_self_times(spans);
  expect_self(spans, "A", 100.0 - 40.0 - 10.0);  // union [10,50] + [60,70]
  expect_self(spans, "B", 18.0);
  expect_self(spans, "C", 30.0);
  expect_self(spans, "D", 10.0);
  expect_self(spans, "E", 2.0);
  expect_self(spans, "I", 30.0);
  expect_self(spans, "F", 90.0);
  expect_self(spans, "G", 0.0);
  expect_self(spans, "H", 10.0);
  if (const SpanEvent* a = find(spans, "A")) {
    expect_near("A sweeps arg", a->arg_number("sweeps"), 7.0);
    expect_near("A tail", a->tail_s * 1e6, 30.0, 1e-6);  // after D ends
  }
  if (const SpanEvent* b = find(spans, "B")) {
    expect_near("B tail", b->tail_s * 1e6, 16.0, 1e-6);  // after E ends
  }
  if (const SpanEvent* d = find(spans, "D")) {
    expect_near("D tail", d->tail_s, 0.0);  // no children
  }

  const std::map<std::string, NameTotals> totals = totals_by_name(spans);
  expect_near("A total", totals.at("A").total_s * 1e6, 100.0, 1e-6);
  expect_near("A self", totals.at("A").self_s * 1e6, 50.0, 1e-6);
}

void live_trace() {
  bvc::obs::Tracer& tracer = bvc::obs::Tracer::global();
  tracer.reset();
  tracer.enable(64);
  const auto busy = [](int micros) {
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) * 1e6 < micros) {
    }
  };
  {
    bvc::obs::Span outer("live.outer", "selftest");
    busy(2000);
    std::thread worker([&] {
      bvc::obs::Span task("live.task", "selftest");
      busy(3000);
    });
    {
      bvc::obs::Span inner("live.inner", "selftest");
      busy(1000);
    }
    worker.join();
  }
  tracer.disable();
  expect_near("live dropped", static_cast<double>(tracer.dropped_events()), 0);
  std::vector<SpanEvent> spans = collect_spans(tracer);
  fold_self_times(spans);
  const SpanEvent* outer = find(spans, "live.outer");
  const SpanEvent* inner = find(spans, "live.inner");
  const SpanEvent* task = find(spans, "live.task");
  if (outer != nullptr && inner != nullptr && task != nullptr) {
    expect_near("live outer self", outer->self_s,
                outer->duration_s() - inner->duration_s(), 2e-9);
    expect_near("live task self", task->self_s, task->duration_s(), 1e-12);
  }
  tracer.reset();
}

}  // namespace

int run_selftest() {
  hand_built_trace();
  live_trace();
  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
