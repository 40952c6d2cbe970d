#include "sim/event_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace {

using bvc::Rng;
using bvc::sim::EngineStats;
using bvc::sim::EventEngine;
using bvc::robust::RunControl;
using bvc::robust::RunStatus;

using IntEngine = EventEngine<int>;

std::vector<int> drain_order(IntEngine& engine) {
  std::vector<int> order;
  const RunStatus status = engine.drain(
      RunControl{}, [&](const IntEngine::Event& e) { order.push_back(e.payload); });
  EXPECT_EQ(status, RunStatus::kConverged);
  return order;
}

TEST(EventEngine, DispatchesInTimeOrder) {
  IntEngine engine;
  engine.schedule(3.0, 0, 3);
  engine.schedule(1.0, 0, 1);
  engine.schedule(2.0, 0, 2);
  EXPECT_EQ(drain_order(engine), (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(EventEngine, KlassBreaksTimeTies) {
  // A find (klass 0) scheduled after a delivery (klass 1) at the same
  // instant still dispatches first — the legacy `next_find <= top.time`
  // rule.
  IntEngine engine;
  engine.schedule(5.0, 1, 10);
  engine.schedule(5.0, 0, 20);
  EXPECT_EQ(drain_order(engine), (std::vector<int>{20, 10}));
}

TEST(EventEngine, SeqBreaksRemainingTies) {
  IntEngine engine;
  for (int i = 0; i < 16; ++i) {
    engine.schedule(1.0, 1, i);
  }
  std::vector<int> expected;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(i);
  }
  EXPECT_EQ(drain_order(engine), expected);
}

TEST(EventEngine, HandlerMaySchedule) {
  IntEngine engine;
  engine.schedule(0.0, 0, 0);
  std::vector<int> order;
  const RunStatus status =
      engine.drain(RunControl{}, [&](const IntEngine::Event& e) {
        order.push_back(e.payload);
        if (e.payload < 4) {
          engine.schedule(engine.now() + 1.0, 0, e.payload + 1);
        }
      });
  EXPECT_EQ(status, RunStatus::kConverged);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
}

TEST(EventEngine, PastEventDispatchesNext) {
  // An event scheduled before now() dispatches next, ahead of everything
  // still queued, and the clock steps back to its time.
  IntEngine engine;
  engine.schedule(5.0, 0, 5);
  engine.schedule(10.0, 0, 10);
  engine.schedule(7.0, 1, 7);
  std::vector<int> order;
  std::vector<double> clock;
  const RunStatus status =
      engine.drain(RunControl{}, [&](const IntEngine::Event& e) {
        order.push_back(e.payload);
        clock.push_back(engine.now());
        if (e.payload == 5) {
          engine.schedule(1.0, 1, 1);
          engine.schedule(-2.0, 1, -2);
        }
      });
  EXPECT_EQ(status, RunStatus::kConverged);
  EXPECT_EQ(order, (std::vector<int>{5, -2, 1, 7, 10}));
  EXPECT_EQ(clock, (std::vector<double>{5.0, -2.0, 1.0, 7.0, 10.0}));
}

TEST(EventEngine, BudgetStopsBeforeNextEvent) {
  IntEngine engine;
  for (int i = 0; i < 10; ++i) {
    engine.schedule(static_cast<double>(i), 0, i);
  }
  RunControl control;
  control.budget.max_ticks = 4;
  std::vector<int> order;
  const RunStatus status = engine.drain(
      control, [&](const IntEngine::Event& e) { order.push_back(e.payload); });
  EXPECT_EQ(status, RunStatus::kBudgetExhausted);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  // The clock stays at the last *processed* event, not the stopped one.
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  EXPECT_EQ(engine.queue_depth(), 6u);
}

TEST(EventEngine, StatsTrackQueueAndHorizon) {
  IntEngine engine;
  engine.schedule(1.0, 0, 1);
  engine.schedule(9.0, 0, 2);
  engine.schedule(4.0, 0, 3);
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.scheduled, 3u);
  EXPECT_EQ(stats.peak_queue_depth, 3u);
  EXPECT_DOUBLE_EQ(stats.horizon, 9.0);
  (void)drain_order(engine);
  EXPECT_EQ(stats.dispatched, 3u);
  EXPECT_EQ(stats.ticks, 3);
}

TEST(EventEngine, DeterministicAcrossRuns) {
  // A drain is a pure function of the schedule calls: two engines fed the
  // same schedule produce identical dispatch sequences.
  const auto run = [] {
    EventEngine<std::string> engine;
    engine.schedule(2.0, 1, "d1");
    engine.schedule(2.0, 0, "f");
    engine.schedule(1.0, 1, "early");
    engine.schedule(2.0, 1, "d2");
    std::vector<std::string> order;
    (void)engine.drain(RunControl{},
                       [&](const EventEngine<std::string>::Event& e) {
                         order.push_back(e.payload);
                       });
    return order;
  };
  EXPECT_EQ(run(), run());
  EXPECT_EQ(run(), (std::vector<std::string>{"early", "f", "d1", "d2"}));
}

// --- differential test against a stably sorted reference -----------------

/// One dispatched event, as the handler saw it.
struct Dispatch {
  double time = 0.0;
  std::uint32_t klass = 0;
  std::uint64_t seq = 0;
  int payload = 0;
  double now = 0.0;  ///< the engine clock during the handler call

  bool operator==(const Dispatch&) const = default;
};

/// The reference queue: a vector sorted by (time, klass) into which each
/// event goes after every event it ties with, so schedule order breaks
/// the ties.
class SortedReference {
 public:
  void schedule(double time, std::uint32_t klass, int payload) {
    const Dispatch event{time, klass, next_seq_++, payload, 0.0};
    const auto at = std::upper_bound(
        queue_.begin(), queue_.end(), event,
        [](const Dispatch& a, const Dispatch& b) {
          return a.time < b.time || (a.time == b.time && a.klass < b.klass);
        });
    queue_.insert(at, event);
    peak_ = std::max(peak_, queue_.size());
    horizon_ = std::max(horizon_, time);
  }

  /// Dispatches up to `budget` events (all of them when negative).
  template <typename Handler>
  void drain(long budget, Handler&& handler) {
    for (; !queue_.empty() && budget != 0; --budget) {
      Dispatch event = queue_.front();
      queue_.erase(queue_.begin());
      now_ = event.time;
      event.now = now_;
      handler(event);
    }
  }

  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] std::size_t peak() const { return peak_; }
  [[nodiscard]] double horizon() const { return horizon_; }
  [[nodiscard]] double now() const { return now_; }

 private:
  std::vector<Dispatch> queue_;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_ = 0;
  double horizon_ = 0.0;
  double now_ = 0.0;
};

/// A time for an event scheduled at clock `now`, drawn to collide often:
/// exactly now(), a past or negative time, a coarse grid over [0, 1e6]
/// shared by many events, a short fixed step ahead, or a fresh time.
double draw_time(Rng& rng, double now) {
  const double steps[] = {0.25, 1.0, 1.5};
  switch (rng.next_below(7)) {
    case 0:
      return now;
    case 1:
      return now - std::floor(rng.next_double() * 4.0);
    case 2:
      return rng.next_bernoulli(0.5) ? -0.0
                                     : -std::floor(rng.next_double() * 8.0);
    case 3:
    case 4:
      return std::floor(rng.next_double() * 2000.0) * 500.0;
    case 5:
      return now + steps[rng.next_below(3)];
    default:
      return rng.next_double() * 1e6;
  }
}

/// Feeds a queue a seeded schedule: `initial` events, then, per dispatch,
/// up to two more drawn from the same stream, until `limit` events exist.
/// Two queues that dispatch in the same order draw the same schedule.
class Scenario {
 public:
  Scenario(std::uint64_t seed, int limit) : rng_(seed), limit_(limit) {}

  template <typename Queue>
  void seed(Queue& queue, int initial) {
    for (int i = 0; i < initial; ++i) {
      add(queue, rng_.next_double() * 1e6);
    }
  }

  template <typename Queue>
  void react(Queue& queue, const Dispatch& event) {
    trace_.push_back(event);
    for (std::uint64_t i = rng_.next_below(3); i > 0; --i) {
      add(queue, draw_time(rng_, event.now));
    }
  }

  [[nodiscard]] const std::vector<Dispatch>& trace() const { return trace_; }

 private:
  template <typename Queue>
  void add(Queue& queue, double time) {
    if (next_payload_ < limit_) {
      queue.schedule(time, static_cast<std::uint32_t>(rng_.next_below(3)),
                     next_payload_++);
    }
  }

  Rng rng_;
  int limit_;
  int next_payload_ = 0;
  std::vector<Dispatch> trace_;
};

class EventEngineDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventEngineDifferential, MatchesStablySortedReference) {
  constexpr int kInitial = 300;
  constexpr int kLimit = 6000;
  Rng budgets(GetParam() * 7919);
  const auto budget = static_cast<long>(1 + budgets.next_below(2000));

  Scenario expected(GetParam(), kLimit);
  SortedReference reference;
  expected.seed(reference, kInitial);
  const auto on_reference = [&](const Dispatch& event) {
    expected.react(reference, event);
  };
  reference.drain(budget, on_reference);
  const std::size_t depth_at_stop = reference.size();
  const double now_at_stop = reference.now();
  reference.drain(-1, on_reference);

  Scenario actual(GetParam(), kLimit);
  IntEngine engine;
  actual.seed(engine, kInitial);
  const auto on_engine = [&](const IntEngine::Event& e) {
    actual.react(engine, {e.time, e.klass, e.seq, e.payload, engine.now()});
  };
  RunControl control;
  control.budget.max_ticks = budget;
  const RunStatus stopped = engine.drain(control, on_engine);
  EXPECT_EQ(engine.queue_depth(), depth_at_stop);
  EXPECT_EQ(engine.now(), now_at_stop);
  EXPECT_EQ(stopped, depth_at_stop == 0 ? RunStatus::kConverged
                                        : RunStatus::kBudgetExhausted);
  EXPECT_EQ(engine.drain(RunControl{}, on_engine), RunStatus::kConverged);

  ASSERT_EQ(actual.trace().size(), expected.trace().size());
  for (std::size_t i = 0; i < expected.trace().size(); ++i) {
    ASSERT_EQ(actual.trace()[i], expected.trace()[i])
        << "dispatch " << i << " seed " << GetParam();
  }
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.now(), reference.now());
  EXPECT_EQ(engine.stats().scheduled, static_cast<std::uint64_t>(kLimit));
  EXPECT_EQ(engine.stats().dispatched, static_cast<std::uint64_t>(kLimit));
  EXPECT_EQ(engine.stats().peak_queue_depth, reference.peak());
  EXPECT_EQ(engine.stats().horizon, reference.horizon());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventEngineDifferential,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{9}));

}  // namespace
