// util::ThreadPool: task scheduling, thread-count clamping, and shutdown
// draining.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace bvc::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.wait_idle();
}

TEST(ThreadPool, ThreadCountClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran.store(true); });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait_idle: the destructor must finish the queue before joining.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

}  // namespace
}  // namespace bvc::util
