#pragma once

/// \file event_loop.hpp
/// Deterministic discrete-event core of the simulated research fabric.
/// All Globus-like services (storage, transfer, compute, timers, the
/// batch scheduler) and the AERO server schedule their work here, so a
/// months-long "always-on" workflow executes in milliseconds of real
/// time and is exactly reproducible.

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "obs/metrics.hpp"
#include "util/sim_time.hpp"

namespace osprey::fabric {

using osprey::util::SimTime;

using EventId = std::uint64_t;

/// Single-threaded priority-queue event loop over virtual time.
/// Events at equal times fire in scheduling order (stable).
///
/// The loop owns the metrics registry of everything scheduled on it:
/// every fabric service binds its counters and histograms from
/// `metrics()` at construction, so one loop is one registry.
class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute virtual time `t` (>= now).
  EventId schedule_at(SimTime t, Callback cb);
  /// Schedule `cb` at now + dt.
  EventId schedule_after(SimTime dt, Callback cb);

  /// Cancel a pending event; returns false if it already fired or is
  /// unknown.
  bool cancel(EventId id);

  /// Process all events with time <= t, then advance the clock to t.
  /// Returns the number of events processed.
  std::size_t run_until(SimTime t);

  /// Process events until the queue is empty (events may schedule more
  /// events; a safety cap guards against runaway self-scheduling loops).
  std::size_t run_all(std::size_t max_events = 10'000'000);

  bool empty() const { return callbacks_.empty(); }
  std::size_t pending() const { return callbacks_.size(); }
  /// Events this loop has fired.
  std::uint64_t events_processed() const { return processed_.value(); }

  /// The registry shared by this loop and every service on it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // doubles as the EventId
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  // Live callbacks; cancellation erases the entry, leaving a tombstone in
  // the priority queue that fire_next() skips.
  std::map<EventId, Callback> callbacks_;
  obs::MetricsRegistry metrics_;
  obs::Counter& processed_;

  /// Pop queue entries until one is live and run it; returns false when
  /// nothing is live.
  bool fire_next();
};

}  // namespace osprey::fabric
