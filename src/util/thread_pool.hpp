// Fixed-size, work-stealing-free thread pool.
//
// One central FIFO queue feeds N long-lived workers; there are no per-worker
// deques and no stealing, so task pickup order is the submission order and
// the scheduling logic stays simple enough to reason about under TSan. Its
// use pattern is fan-out (mdp::run_batch): submit one task per independent
// solve and wait_idle() — throughput-bound, task granularity is
// milliseconds to seconds, so the central queue is never contended. Every
// solve runs on one thread; run_batch parallelizes across solves.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bvc::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int threads);

  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int thread_count() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Enqueues one task. Tasks must not throw — an escaping exception
  /// terminates the process (wrap fallible work in try/catch and carry the
  /// error out by hand, as mdp::run_batch does).
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static int hardware_threads() noexcept;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;  // queued + currently running
  bool stopping_ = false;
  // Observability only (docs/OBSERVABILITY.md): total nanoseconds workers
  // spent inside tasks, accumulated per task completion when metrics or
  // tracing are enabled. Read at destruction to publish the pool's
  // utilization gauge; never consulted by scheduling.
  std::atomic<std::int64_t> busy_ns_{0};
  std::chrono::steady_clock::time_point created_ =
      std::chrono::steady_clock::now();
};

}  // namespace bvc::util
