#include "layers.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace perfbench {

using bvc::obs::MetricsRegistry;
using bvc::obs::MetricsSnapshot;
using bvc::obs::Tracer;

TracedWindow::TracedWindow(std::size_t events_per_thread) {
  Tracer::global().reset();
  MetricsRegistry::global().reset();
  bvc::obs::set_metrics_enabled(true);
  Tracer::global().enable(events_per_thread);
}

TracedWindow::~TracedWindow() {
  if (open_) {
    Tracer::global().disable();
    bvc::obs::set_metrics_enabled(false);
  }
}

void TracedWindow::stop() {
  if (!open_) {
    return;
  }
  open_ = false;
  Tracer::global().disable();
  bvc::obs::set_metrics_enabled(false);
  metrics_ = MetricsRegistry::global().snapshot();
  dropped_ = static_cast<double>(Tracer::global().dropped_events());
  spans_ = collect_spans(Tracer::global());
  fold_self_times(spans_);
}

std::uint64_t counter_or_zero(const MetricsSnapshot& snapshot,
                              const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

double gauge_or_zero(const MetricsSnapshot& snapshot,
                     const std::string& name) {
  const auto it = snapshot.gauges.find(name);
  return it == snapshot.gauges.end() ? 0.0 : it->second;
}

double total_of(const std::map<std::string, NameTotals>& totals,
                const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_s;
}

double self_of(const std::map<std::string, NameTotals>& totals,
               const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_s;
}

void set_solver_metrics(Outcome& outcome, const TracedWindow& window) {
  const std::map<std::string, NameTotals> totals =
      totals_by_name(window.spans());
  double sweeps_max = 0.0;
  double capped = 0.0;
  for (const SpanEvent& span : window.spans()) {
    if (span.name != "rvi.solve") {
      continue;
    }
    sweeps_max = std::max(sweeps_max, span.arg_number("sweeps"));
    // An RVI solve that used up max_sweeps ends tolerance-stalled.
    if (span.arg_string("status") != "converged") {
      capped += 1.0;
    }
  }
  const MetricsSnapshot& snapshot = window.metrics();
  const double sweeps =
      static_cast<double>(counter_or_zero(snapshot, "mdp.rvi.sweeps"));
  const double rvi_busy = total_of(totals, "rvi.solve");
  outcome.set("mdp.cache.compile_s", total_of(totals, "cache.compile"));
  outcome.set("mdp.rvi.solves",
              static_cast<double>(
                  counter_or_zero(snapshot, "mdp.rvi.solves")));
  outcome.set("mdp.rvi.sweeps", sweeps);
  outcome.set("mdp.rvi.sweeps_max", sweeps_max);
  outcome.set("mdp.rvi.capped_solves", capped);
  outcome.set("mdp.rvi.busy_s", rvi_busy);
  outcome.set("mdp.rvi.sweep_us",
              sweeps > 0.0 ? rvi_busy / sweeps * 1e6 : 0.0);
  outcome.set("mdp.ratio.bisection_solves",
              static_cast<double>(
                  counter_or_zero(snapshot, "mdp.ratio.bisection_solves")));
  outcome.set("mdp.ratio.self_s", self_of(totals, "ratio.solve"));
}

void set_pool_metrics(Outcome& outcome, const MetricsSnapshot& snapshot,
                      double wall_s, int threads) {
  const double busy =
      static_cast<double>(counter_or_zero(snapshot, "util.pool.busy_ns")) *
      1e-9;
  outcome.set("util.pool.busy_s", busy);
  outcome.set("util.pool.utilization",
              wall_s > 0.0 ? busy / (wall_s * threads) : 0.0);
  outcome.set("mdp.batch.queue_wait_max_s",
              gauge_or_zero(snapshot, "mdp.batch.max_queue_wait_seconds"));
  outcome.set("mdp.batch.tail_s", std::max(0.0, wall_s - busy / threads));
}

}  // namespace perfbench
