#include "mdp/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace bvc::mdp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

BatchReport run_batch(
    std::size_t count, const BatchConfig& config,
    const std::function<robust::RunStatus(std::size_t,
                                          const robust::RunControl&)>& run_item,
    const std::function<void(std::size_t, robust::RunStatus)>& skip_item) {
  return run_batch(count, config, BatchCheckpoint{}, run_item, skip_item);
}

BatchReport run_batch(
    std::size_t count, const BatchConfig& config,
    const BatchCheckpoint& checkpoint,
    const std::function<robust::RunStatus(std::size_t,
                                          const robust::RunControl&)>& run_item,
    const std::function<void(std::size_t, robust::RunStatus)>& skip_item) {
  BVC_REQUIRE(run_item != nullptr, "run_batch requires a run_item callback");
  BVC_REQUIRE(skip_item != nullptr, "run_batch requires a skip_item callback");
  if (checkpoint.enabled()) {
    BVC_REQUIRE(checkpoint.cell_key != nullptr && checkpoint.restore != nullptr &&
                    checkpoint.snapshot != nullptr,
                "a journaling BatchCheckpoint needs cell_key/restore/snapshot");
  }

  const int threads =
      config.threads == 0
          ? util::ThreadPool::hardware_threads()
          : std::max(1, config.threads);
  const Clock::time_point start = Clock::now();
  const double allowance = config.control.budget.wall_clock_seconds;
  const std::int64_t max_started = config.control.budget.max_ticks;

  // Internal aborts (an item threw) cancel this linked token so in-flight
  // siblings stop early; the caller's token is left untouched.
  const robust::CancelToken abort_token =
      robust::CancelToken::make_linked(config.control.cancel);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> converged{0};
  std::atomic<std::size_t> skipped{0};
  std::atomic<std::size_t> resumed{0};
  std::atomic<std::uint8_t> worst{
      static_cast<std::uint8_t>(robust::RunStatus::kConverged)};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto note_status = [&](robust::RunStatus status) {
    if (robust::is_success(status)) {
      converged.fetch_add(1, std::memory_order_relaxed);
    }
    // RunStatus is ordered best-to-worst, so the aggregate is a max.
    std::uint8_t raw = static_cast<std::uint8_t>(status);
    std::uint8_t seen = worst.load(std::memory_order_relaxed);
    while (raw > seen &&
           !worst.compare_exchange_weak(seen, raw,
                                        std::memory_order_relaxed)) {
    }
  };

  // Each worker (and, for threads == 1, the calling thread) drains the
  // shared index counter. Pickup re-checks cancellation and the shared
  // budget so one expired deadline skips every remaining item.
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      // Resume first, before any budget check: replaying a finished cell
      // from the journal costs microseconds and must not be starved by a
      // deadline the original run would have beaten.
      if (checkpoint.enabled()) {
        const std::optional<robust::CheckpointRecord> record =
            checkpoint.journal->lookup(checkpoint.cell_key(i));
        if (record.has_value() && checkpoint.restore(i, *record)) {
          note_status(record->status);
          resumed.fetch_add(1, std::memory_order_relaxed);
          if (obs::metrics_enabled()) {
            static obs::Counter& resumed_items =
                obs::MetricsRegistry::global().counter(
                    "mdp.batch.items_resumed");
            resumed_items.add();
          }
          continue;
        }
      }

      std::optional<robust::RunStatus> skip;
      if (abort_token.cancel_requested()) {
        skip = robust::RunStatus::kCancelled;
      } else if (seconds_since(start) >= allowance ||
                 static_cast<std::int64_t>(i) >= max_started) {
        skip = robust::RunStatus::kBudgetExhausted;
      }
      if (skip) {
        skip_item(i, *skip);
        skipped.fetch_add(1, std::memory_order_relaxed);
        note_status(*skip);
        if (obs::metrics_enabled()) {
          static obs::Counter& skipped_items =
              obs::MetricsRegistry::global().counter("mdp.batch.items_skipped");
          skipped_items.add();
        }
        continue;
      }

      // Queue wait: how long this item sat behind earlier items before a
      // worker picked it up, measured from the batch's start. The gauge
      // holds the worst wait seen, i.e. the batch's scheduling backlog.
      if (obs::metrics_enabled()) {
        static obs::Gauge& queue_wait = obs::MetricsRegistry::global().gauge(
            "mdp.batch.max_queue_wait_seconds");
        const double waited = seconds_since(start);
        if (waited > queue_wait.value()) {
          queue_wait.set(waited);
        }
      }

      robust::RunControl item_control;
      item_control.cancel = abort_token;
      if (allowance != std::numeric_limits<double>::infinity()) {
        // Same absolute deadline as the batch: the item gets whatever wall
        // clock remains, so no item can outlive the shared budget.
        item_control.budget = robust::RunBudget::deadline(
            std::max(0.0, allowance - seconds_since(start)));
      }
      try {
        obs::Span span("batch.item", "batch");
        span.arg("index", static_cast<std::int64_t>(i));
        const robust::RunStatus status = run_item(i, item_control);
        note_status(status);
        // Only completed cells are journaled: a resumed sweep retries
        // failures instead of replaying them.
        if (checkpoint.enabled() && robust::is_success(status)) {
          checkpoint.journal->append(checkpoint.snapshot(i));
        }
        if (obs::metrics_enabled()) {
          static obs::Counter& items =
              obs::MetricsRegistry::global().counter("mdp.batch.items_run");
          items.add();
        }
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
        abort_token.request_cancel();
        skip_item(i, robust::RunStatus::kCancelled);
        note_status(robust::RunStatus::kCancelled);
      }
    }
  };

  if (threads == 1 || count <= 1) {
    drain();
  } else {
    const int workers =
        static_cast<int>(std::min<std::size_t>(threads, count));
    util::ThreadPool pool(workers);
    for (int w = 0; w < workers; ++w) {
      pool.submit(drain);
    }
    pool.wait_idle();
  }

  if (first_error) {
    std::rethrow_exception(first_error);
  }

  BatchReport report;
  report.status = count == 0
                      ? robust::RunStatus::kConverged
                      : static_cast<robust::RunStatus>(
                            worst.load(std::memory_order_relaxed));
  report.items = count;
  report.items_converged = converged.load(std::memory_order_relaxed);
  report.items_skipped = skipped.load(std::memory_order_relaxed);
  report.items_resumed = resumed.load(std::memory_order_relaxed);
  report.elapsed_seconds = seconds_since(start);
  return report;
}

}  // namespace bvc::mdp
