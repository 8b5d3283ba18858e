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
  TimerId id = next_id_++;
  Timer& timer =
      timers_.emplace(id, Timer{name, period, std::move(fn), first_at, 0})
          .first->second;
  arm(id, timer);
  return id;
}

void TimerService::arm(TimerId id, Timer& timer) {
  // Two words of capture: std::function stores the closure inline.
  timer.pending_event =
      loop_.schedule_at(timer.next_at, [this, id] { fire(id); });
}

void TimerService::fire(TimerId id) {
  auto it = timers_.find(id);
  if (it == timers_.end()) return;  // cancelled meanwhile
  Timer& timer = it->second;
  fires_.inc();
  if (tracer_ != nullptr) {
    tracer_->instant(
        obs::Category::kFlow,
        "timer:" + (timer.name.empty() ? std::to_string(id) : timer.name),
        obs::sim_ns(loop_.now()), obs::kNoSpan);
  }
  // Re-arm before invoking so the callback may cancel the timer.
  timer.next_at += timer.period;
  std::function<void()> fn = timer.fn;  // copy: cancel() may erase
  arm(id, timer);
  fn();
}

bool TimerService::cancel(TimerId id) {
  auto it = timers_.find(id);
  if (it == timers_.end()) return false;
  loop_.cancel(it->second.pending_event);
  timers_.erase(it);
  return true;
}

}  // namespace osprey::fabric
