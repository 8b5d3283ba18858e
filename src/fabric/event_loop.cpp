#include "fabric/event_loop.hpp"

#include <utility>

#include "util/error.hpp"

namespace osprey::fabric {

EventLoop::EventLoop()
    : processed_total_(
          metrics_.counter("fabric_events_processed_total",
                           "events fired by the virtual-time loop")) {}

EventId EventLoop::schedule_at(SimTime t, Callback cb) {
  OSPREY_REQUIRE(t >= now_, "cannot schedule an event in the past");
  OSPREY_REQUIRE(static_cast<bool>(cb), "null event callback");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  ++live_;
  queue_.push(Entry{t, next_seq_++, slot, s.gen});
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

EventId EventLoop::schedule_after(SimTime dt, Callback cb) {
  OSPREY_REQUIRE(dt >= 0, "negative delay");
  return schedule_at(now_ + dt, std::move(cb));
}

EventLoop::Callback EventLoop::take(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  free_slots_.push_back(slot);
  --live_;
  return std::exchange(s.cb, nullptr);
}

bool EventLoop::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.gen != static_cast<std::uint32_t>(id >> 32) || !s.cb) return false;
  // The callback is destroyed here, after the slot is consistent again
  // (a capture's destructor may use the loop). Its heap entry is now
  // stale and skipped when popped.
  take(slot);
  return true;
}

bool EventLoop::has_live_top() {
  while (!queue_.empty()) {
    const Entry& top = queue_.top();
    if (slots_[top.slot].gen == top.gen) return true;
    queue_.pop();  // cancelled
  }
  return false;
}

void EventLoop::fire_top() {
  const Entry entry = queue_.top();
  queue_.pop();
  now_ = entry.time;
  // Detach the callback and free the slot before running it: the
  // callback may schedule (reusing the slot) or cancel other events, and
  // cancelling its own id finds a bumped generation.
  Callback cb = take(entry.slot);
  processed_total_.inc();
  cb();
}

std::size_t EventLoop::run_until(SimTime t) {
  OSPREY_REQUIRE(t >= now_, "run_until into the past");
  std::size_t fired = 0;
  while (has_live_top() && queue_.top().time <= t) {
    fire_top();
    ++fired;
  }
  now_ = t;
  return fired;
}

std::size_t EventLoop::run_all(std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events && has_live_top()) {
    fire_top();
    ++fired;
  }
  OSPREY_CHECK(fired < max_events, "event loop exceeded max_events cap");
  return fired;
}

}  // namespace osprey::fabric
