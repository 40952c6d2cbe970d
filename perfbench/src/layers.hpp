// The traced half of a run: a window with obs tracing and metrics on, and
// the per-layer metrics the workloads share (solver, cache, pool).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "trace_fold.hpp"

namespace perfbench {

/// Turns obs tracing and metrics on for its lifetime (from an empty trace
/// and zeroed registry). stop() turns them off, folds the recorded spans
/// and snapshots the metrics; the destructor stops a window still open.
class TracedWindow {
 public:
  /// `events_per_thread` sizes each thread's ring so nothing is dropped.
  explicit TracedWindow(std::size_t events_per_thread);
  ~TracedWindow();

  TracedWindow(const TracedWindow&) = delete;
  TracedWindow& operator=(const TracedWindow&) = delete;

  void stop();

  [[nodiscard]] const std::vector<SpanEvent>& spans() const { return spans_; }
  [[nodiscard]] const bvc::obs::MetricsSnapshot& metrics() const {
    return metrics_;
  }
  [[nodiscard]] double dropped() const { return dropped_; }

 private:
  bool open_ = true;
  std::vector<SpanEvent> spans_;
  bvc::obs::MetricsSnapshot metrics_;
  double dropped_ = 0.0;
};

[[nodiscard]] std::uint64_t counter_or_zero(
    const bvc::obs::MetricsSnapshot& snapshot, const std::string& name);
[[nodiscard]] double gauge_or_zero(const bvc::obs::MetricsSnapshot& snapshot,
                                   const std::string& name);
/// Summed duration / self time of the spans named `name`.
[[nodiscard]] double total_of(const std::map<std::string, NameTotals>& totals,
                              const std::string& name);
[[nodiscard]] double self_of(const std::map<std::string, NameTotals>& totals,
                             const std::string& name);

/// mdp.cache.compile_s, mdp.rvi.*, mdp.ratio.bisection_solves and
/// mdp.ratio.self_s from a window's spans and counters.
void set_solver_metrics(Outcome& outcome, const TracedWindow& window);

/// util.pool.busy_s / utilization and mdp.batch.queue_wait_max_s / tail_s
/// for a window of `wall_s` seconds served by `threads` batch workers.
void set_pool_metrics(Outcome& outcome,
                      const bvc::obs::MetricsSnapshot& snapshot, double wall_s,
                      int threads);

}  // namespace perfbench
