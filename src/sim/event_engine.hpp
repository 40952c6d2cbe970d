// The shared discrete-event core of src/sim: a monotone radix event queue
// with a simulated clock and deterministic tie-breaking.
//
// Both simulators (network_sim and attack_scenario) lower their
// hand-rolled loops onto this engine. Events are ordered by
// (time, klass, seq): `klass` ranks simultaneous events of different kinds
// (e.g. a block find beats a block delivery scheduled for the same instant,
// reproducing the legacy `next_find <= top.time` rule), and `seq` — the
// schedule order — breaks the remaining ties, so a drain is a pure function
// of the schedule calls and never depends on queue internals.
//
// The queue is a radix heap over the bits of the event times. It keeps a
// base time, the earliest time of the last bucket it emptied. A later event
// goes into the bucket of the highest bit in which its time differs from
// the base; an event at or before the base (a tie, a deferral to `now()`,
// a past or negative time) waits in a small binary heap under the
// (time, klass, seq) order, and it is from that heap that events dispatch.
// When the heap runs dry, the lowest non-empty bucket moves the base to its
// earliest time and spreads its events over the heap and lower buckets.
// An event only ever moves to a lower bucket, by a cheap bit test, instead
// of sifting through a heap of every queued event.
//
// The engine owns the RunControl integration: one guard tick per dispatched
// event, with the clock frozen at the last *processed* event when a budget
// stops the run (partial results cover exactly the simulated prefix). It
// also keeps the queue statistics (events scheduled/dispatched, peak queue
// depth, schedule horizon) that the simulators publish through src/obs.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "robust/run_control.hpp"

namespace bvc::sim {

/// Queue statistics of one drain, for obs gauges and the run manifest.
struct EngineStats {
  std::uint64_t scheduled = 0;   ///< events ever pushed
  std::uint64_t dispatched = 0;  ///< events handed to the handler
  std::int64_t ticks = 0;        ///< guard ticks consumed by the last drain
  std::size_t peak_queue_depth = 0;
  double horizon = 0.0;  ///< latest event time ever scheduled
};

template <typename Payload>
class EventEngine {
 public:
  /// Field order packs time, seq, klass and a 12-byte payload (the network
  /// simulator's) into 32 bytes.
  struct Event {
    double time = 0.0;
    /// Schedule order; the final tie-breaker.
    std::uint64_t seq = 0;
    /// Kind rank for simultaneous events: lower klass dispatches first.
    std::uint32_t klass = 0;
    Payload payload{};
  };

  /// Enqueues an event. Scheduling in the past is allowed (the event simply
  /// dispatches next); the simulators never do it, but fault deferrals may
  /// schedule exactly at `now()`. Times must not be NaN.
  void schedule(double time, std::uint32_t klass, Payload payload) {
    place(Event{time, next_seq_++, klass, std::move(payload)});
    ++size_;
    ++stats_.scheduled;
    stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, size_);
    stats_.horizon = std::max(stats_.horizon, time);
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t queue_depth() const noexcept { return size_; }

  /// The simulated clock: the time of the last dispatched event.
  [[nodiscard]] double now() const noexcept { return now_; }

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Dispatches events in (time, klass, seq) order until the queue drains
  /// or the control stops the run. One guard tick per event, taken BEFORE
  /// the pop, so a stopped run leaves `now()` at the last processed event.
  /// The handler may schedule further events. Returns kConverged on a full
  /// drain, the stopping status otherwise.
  template <typename Handler>
  [[nodiscard]] robust::RunStatus drain(const robust::RunControl& control,
                                        Handler&& handler) {
    robust::RunGuard guard(control);
    robust::RunStatus status = robust::RunStatus::kConverged;
    while (size_ != 0) {
      if (const auto stop_status = guard.tick()) {
        status = *stop_status;
        break;
      }
      if (near_.empty()) {
        spill_lowest_bucket();
      }
      std::pop_heap(near_.begin(), near_.end(), After{});
      Event event = std::move(near_.back());
      near_.pop_back();
      --size_;
      now_ = event.time;
      ++stats_.dispatched;
      handler(event);
    }
    stats_.ticks = guard.ticks();
    return status;
  }

  /// Publishes the engine-level counters and gauges (`sim.engine.*`) to the
  /// global metrics registry; no-op when metrics are disabled. The gauges
  /// report the most recent drain, the counters accumulate across drains.
  void publish_metrics() const {
    if (!obs::metrics_enabled()) {
      return;
    }
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.counter("sim.engine.events_scheduled").add(stats_.scheduled);
    registry.counter("sim.engine.events_dispatched").add(stats_.dispatched);
    registry.gauge("sim.engine.queue_depth_peak")
        .set(static_cast<double>(stats_.peak_queue_depth));
    registry.gauge("sim.engine.horizon").set(stats_.horizon);
  }

 private:
  /// `a` dispatches after `b` — the heap predicate for a min-heap on
  /// (time, klass, seq).
  struct After {
    [[nodiscard]] bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      if (a.klass != b.klass) {
        return a.klass > b.klass;
      }
      return a.seq > b.seq;
    }
  };

  /// Files an event after `base_` into the bucket of the highest bit in
  /// which the two times differ, and any other event into the heap. Both
  /// times are then positive, and positive doubles order like their bits.
  void place(Event&& event) {
    if (!(event.time > base_)) {
      near_.push_back(std::move(event));
      std::push_heap(near_.begin(), near_.end(), After{});
      return;
    }
    const std::uint64_t differ = std::bit_cast<std::uint64_t>(event.time) ^
                                 std::bit_cast<std::uint64_t>(base_);
    const auto bucket = static_cast<std::size_t>(std::bit_width(differ) - 1);
    buckets_[bucket].push_back(std::move(event));
    occupied_ |= std::uint64_t{1} << bucket;
  }

  /// Moves the base to the earliest time in the lowest non-empty bucket and
  /// re-files that bucket's events: the earliest go to the heap, the rest
  /// to lower buckets, since they now share one more high bit with the
  /// base. Buckets above keep their index: the new base agrees with the
  /// old one on every bit from the emptied bucket's up.
  void spill_lowest_bucket() {
    const auto lowest = static_cast<std::size_t>(std::countr_zero(occupied_));
    std::vector<Event>& bucket = buckets_[lowest];
    base_ = bucket.front().time;
    for (const Event& event : bucket) {
      base_ = std::min(base_, event.time);
    }
    for (Event& event : bucket) {
      place(std::move(event));
    }
    bucket.clear();
    occupied_ &= ~(std::uint64_t{1} << lowest);
  }

  /// Events at or before `base_`, as a min-heap under After.
  std::vector<Event> near_;
  /// Events after `base_`, by the highest bit in which they differ from it.
  std::array<std::vector<Event>, 64> buckets_;
  std::uint64_t occupied_ = 0;  ///< bit i set: buckets_[i] is non-empty
  double base_ = 0.0;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
  EngineStats stats_;
};

}  // namespace bvc::sim
