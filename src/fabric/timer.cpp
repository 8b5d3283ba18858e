#include "fabric/timer.hpp"

#include "util/error.hpp"

namespace osprey::fabric {

TimerService::TimerService(EventLoop& loop, AuthService& auth)
    : loop_(loop),
      auth_(auth),
      fires_(loop.metrics().counter("fabric_timer_fires_total",
                                    "periodic timer firings")) {}

TimerId TimerService::every(SimTime period, SimTime first_at,
                            std::function<void()> fn,
                            const std::string& token,
                            const std::string& name) {
  auth_.validate(token, scopes::kTimers);
  OSPREY_REQUIRE(period > 0, "timer period must be positive");
  OSPREY_REQUIRE(static_cast<bool>(fn), "null timer callback");
  OSPREY_REQUIRE(first_at >= loop_.now(), "first firing is in the past");
  const TimerId id = timers_.size();
  Timer& timer =
      timers_.emplace_back(Timer{name, period, std::move(fn), first_at, 0});
  ++active_;
  arm(id, timer);
  return id;
}

void TimerService::arm(TimerId id, Timer& timer) {
  // Two words of capture: std::function stores the closure inline.
  timer.pending_event =
      loop_.schedule_at(timer.next_at, [this, id] { fire(id); });
}

void TimerService::fire(TimerId id) {
  // Only a live timer has a pending event: cancel() cancels it.
  Timer& timer = timers_[id];
  fires_.inc();
  if (tracer_ != nullptr) {
    tracer_->instant(
        obs::Category::kFlow,
        "timer:" + (timer.name.empty() ? std::to_string(id) : timer.name),
        obs::sim_ns(loop_.now()), obs::kNoSpan);
  }
  // Re-arm before invoking so the callback may cancel the timer.
  timer.next_at += timer.period;
  arm(id, timer);
  // The callback runs in place; a cancel() from inside it leaves it
  // alive, and it is released here once it has returned (or thrown).
  struct Running {
    Timer& timer;
    ~Running() {
      timer.running = false;
      if (timer.cancelled) timer.fn = nullptr;
    }
  } running{timer};
  timer.running = true;
  timer.fn();
}

bool TimerService::cancel(TimerId id) {
  if (id >= timers_.size()) return false;
  Timer& timer = timers_[id];
  if (timer.cancelled) return false;
  loop_.cancel(timer.pending_event);
  timer.cancelled = true;
  --active_;
  if (!timer.running) timer.fn = nullptr;
  return true;
}

}  // namespace osprey::fabric
