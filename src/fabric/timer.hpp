#pragma once

/// \file timer.hpp
/// Simulated Globus Timers: periodic actions on the research fabric.
/// AERO's ingestion flows poll their upstream data source "at a user
/// specifiable frequency, in this case daily" through this service.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "fabric/auth.hpp"
#include "fabric/event_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace osprey::fabric {

using TimerId = std::uint64_t;

/// Periodic callback scheduling with cancellation.
///
/// Timers live in a table indexed by their (dense, never reused) id. A
/// std::deque keeps every entry's address stable while every() appends
/// from inside a callback, so fire() runs the callback in place. A
/// cancelled entry stays as a tombstone; its callback is released at
/// once, or, when the timer cancels itself from inside that callback,
/// as soon as the callback returns.
class TimerService {
 public:
  TimerService(EventLoop& loop, AuthService& auth);

  /// Fire `fn` first at `first_at` (absolute) and then every `period`.
  TimerId every(SimTime period, SimTime first_at, std::function<void()> fn,
                const std::string& token, const std::string& name = "");

  /// Cancel; returns false for unknown/finished timers.
  bool cancel(TimerId id);

  /// Attach a trace recorder (non-owning; nullptr detaches). Every
  /// firing becomes an instant event ("timer:<name>").
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  std::size_t active_count() const { return active_; }
  /// Timer firings on this service's loop (all its TimerServices).
  std::uint64_t total_fires() const { return fires_.value(); }

 private:
  struct Timer {
    std::string name;
    SimTime period;
    std::function<void()> fn;
    SimTime next_at;  // when the pending event fires
    EventId pending_event;
    bool cancelled = false;
    bool running = false;  // fn is on the stack: cancel() must keep it
  };

  /// Schedule the timer's next firing at `timer.next_at`.
  void arm(TimerId id, Timer& timer);
  void fire(TimerId id);

  EventLoop& loop_;
  AuthService& auth_;
  std::deque<Timer> timers_;  // indexed by TimerId
  std::size_t active_ = 0;
  obs::Counter& fires_;
  obs::TraceRecorder* tracer_ = nullptr;
};

}  // namespace osprey::fabric
