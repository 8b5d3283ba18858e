#pragma once

/// \file event_loop.hpp
/// Deterministic discrete-event core of the simulated research fabric.
/// All Globus-like services (storage, transfer, compute, timers, the
/// batch scheduler) and the AERO server schedule their work here, so a
/// months-long "always-on" workflow executes in milliseconds of real
/// time and is exactly reproducible.

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "obs/metrics.hpp"
#include "util/sim_time.hpp"

namespace osprey::fabric {

using osprey::util::SimTime;

class FaultPlan;

/// Opaque handle of one scheduled event: (generation << 32) | slot.
using EventId = std::uint64_t;

/// Single-threaded priority-queue event loop over virtual time.
/// Events at equal times fire in scheduling order (stable).
///
/// A pending event's callback lives in a slot of a reusable vector; its
/// heap entry carries the slot and the slot's generation. Firing or
/// cancelling an event destroys the callback, bumps the generation and
/// frees the slot, so a stale EventId or heap entry no longer matches
/// and cancel() and the skip of cancelled entries are O(1) checks.
///
/// The loop owns the metrics registry of everything scheduled on it:
/// every fabric service binds its counters and histograms from
/// `metrics()` at construction, so one loop is one registry. Every
/// instrument in it is loop-confined (obs/metrics.hpp), so each fired
/// event is one plain increment of `fabric_events_processed_total`,
/// exact mid-run too.
///
/// The loop also carries the chaos plan of everything scheduled on it:
/// every fault-prone service reads `fault_plan()` at its injection
/// points (never caching it), so one set_fault_plan() call attaches or
/// detaches chaos everywhere at once.
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

  /// Cancel a pending event and destroy its callback now; returns false
  /// if it already fired (or is firing), was cancelled, or is unknown.
  bool cancel(EventId id);

  /// Process all events with time <= t, then advance the clock to t.
  /// Returns the number of events processed.
  std::size_t run_until(SimTime t);

  /// Process events until the queue is empty (events may schedule more
  /// events; a safety cap guards against runaway self-scheduling loops).
  std::size_t run_all(std::size_t max_events = 10'000'000);

  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }
  /// Events this loop has fired.
  std::uint64_t events_processed() const { return processed_total_.value(); }

  /// The registry shared by this loop and every service on it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Attach a chaos FaultPlan to every service on this loop
  /// (non-owning; nullptr detaches).
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }
  FaultPlan* fault_plan() const { return fault_plan_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // scheduling order: the tie-break at equal times
    std::uint32_t slot;
    std::uint32_t gen;  // the slot's generation when scheduled
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  struct Slot {
    Callback cb;  // empty while the slot is free
    std::uint32_t gen = 0;
  };

  /// Invalidate the slot's ids, free it and hand back its callback.
  Callback take(std::uint32_t slot);
  /// Pop cancelled entries off the top; true when a live one remains.
  bool has_live_top();
  /// Pop the (live) top entry and run its callback.
  void fire_top();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  obs::MetricsRegistry metrics_;
  obs::Counter& processed_total_;
  FaultPlan* fault_plan_ = nullptr;
};

}  // namespace osprey::fabric
