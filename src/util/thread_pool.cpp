#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::util {

ThreadPool::ThreadPool(int threads) {
  const int count = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  if (obs::metrics_enabled()) {
    // Utilization over this pool's whole lifetime: busy worker-seconds over
    // available worker-seconds. Short-lived pools (one per batch) overwrite
    // the gauge, so the metrics snapshot reports the most recent pool.
    const double lifetime = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - created_)
                                .count();
    const double available =
        lifetime * static_cast<double>(workers_.size());
    if (available > 0.0) {
      obs::MetricsRegistry::global()
          .gauge("util.pool.utilization")
          .set(static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
               1e-9 / available);
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  BVC_REQUIRE(task != nullptr, "cannot submit an empty task");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stopping, queue drained
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    if (obs::metrics_enabled() || obs::trace_enabled()) {
      // Instrumented path: one span per task plus busy-time accounting for
      // the destructor's utilization gauge. The clock reads happen only
      // when observability is on; the default path runs the task bare.
      static obs::Counter& tasks =
          obs::MetricsRegistry::global().counter("util.pool.tasks");
      static obs::Counter& busy_ns_total =
          obs::MetricsRegistry::global().counter("util.pool.busy_ns");
      const auto begin = std::chrono::steady_clock::now();
      {
        obs::Span span("pool.task", "pool");
        task();
      }
      const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - begin)
                               .count();
      busy_ns_.fetch_add(elapsed, std::memory_order_relaxed);
      tasks.add();
      busy_ns_total.add(static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, elapsed)));
    } else {
      task();
    }
    lock.lock();
    --in_flight_;
    if (in_flight_ == 0) {
      all_done_.notify_all();
    }
  }
}

int ThreadPool::hardware_threads() noexcept {
  const unsigned count = std::thread::hardware_concurrency();
  return count == 0 ? 1 : static_cast<int>(count);
}

}  // namespace bvc::util
