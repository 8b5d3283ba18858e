#include "fabric/event_loop.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "util/error.hpp"

namespace of = osprey::fabric;
using osprey::util::kDay;
using osprey::util::kHour;
using osprey::util::kSecond;

TEST(EventLoop, StartsAtZero) {
  of::EventLoop loop;
  EXPECT_EQ(loop.now(), 0);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, FiresInTimeOrder) {
  of::EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(3 * kSecond, [&] { order.push_back(3); });
  loop.schedule_at(1 * kSecond, [&] { order.push_back(1); });
  loop.schedule_at(2 * kSecond, [&] { order.push_back(2); });
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 3 * kSecond);
}

TEST(EventLoop, StableOrderAtEqualTimes) {
  of::EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(kSecond, [&order, i] { order.push_back(i); });
  }
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, RunUntilAdvancesClockEvenWithoutEvents) {
  of::EventLoop loop;
  EXPECT_EQ(loop.run_until(5 * kDay), 0u);
  EXPECT_EQ(loop.now(), 5 * kDay);
}

TEST(EventLoop, RunUntilLeavesLaterEventsPending) {
  of::EventLoop loop;
  int fired = 0;
  loop.schedule_at(1 * kHour, [&] { ++fired; });
  loop.schedule_at(3 * kHour, [&] { ++fired; });
  EXPECT_EQ(loop.run_until(2 * kHour), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, EventsMayScheduleEvents) {
  of::EventLoop loop;
  std::vector<of::SimTime> times;
  loop.schedule_at(kSecond, [&] {
    times.push_back(loop.now());
    loop.schedule_after(kSecond, [&] { times.push_back(loop.now()); });
  });
  loop.run_all();
  EXPECT_EQ(times, (std::vector<of::SimTime>{kSecond, 2 * kSecond}));
}

TEST(EventLoop, CancelPreventsFiring) {
  of::EventLoop loop;
  bool fired = false;
  of::EventId id = loop.schedule_at(kSecond, [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // already cancelled
  loop.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, CancelledTombstonesDoNotBlockRunUntil) {
  of::EventLoop loop;
  of::EventId id = loop.schedule_at(kSecond, [] {});
  loop.schedule_at(2 * kSecond, [] {});
  loop.cancel(id);
  EXPECT_EQ(loop.run_until(3 * kSecond), 1u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, SchedulingInPastThrows) {
  of::EventLoop loop;
  loop.schedule_at(kSecond, [] {});
  loop.run_all();
  EXPECT_THROW(loop.schedule_at(0, [] {}), osprey::util::InvalidArgument);
  EXPECT_THROW(loop.schedule_after(-1, [] {}),
               osprey::util::InvalidArgument);
}

/// The registry's view of the loop's fired events.
std::uint64_t registry_events(const of::EventLoop& loop) {
  const osprey::obs::Counter* c =
      loop.metrics().find_counter("fabric_events_processed_total");
  return c == nullptr ? 0 : c->value();
}

TEST(EventLoop, RunawayLoopIsCapped) {
  of::EventLoop loop;
  std::function<void()> rearm = [&] { loop.schedule_after(1, rearm); };
  loop.schedule_after(1, rearm);
  EXPECT_THROW(loop.run_all(1000), osprey::util::Error);
  EXPECT_EQ(loop.events_processed(), 1000u);
  EXPECT_EQ(registry_events(loop), loop.events_processed());
}

TEST(EventLoop, ProcessedCounter) {
  of::EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule_at(i * kSecond, [] {});
  loop.run_all();
  EXPECT_EQ(loop.events_processed(), 7u);
}

// The loop counts each fired event straight into
// fabric_events_processed_total, however the run returns.
TEST(EventLoop, RegistryCounterMatchesEventsProcessedAfterEveryRun) {
  of::EventLoop loop;
  for (int i = 1; i <= 5; ++i) loop.schedule_at(i * kSecond, [] {});
  EXPECT_EQ(loop.run_until(3 * kSecond), 3u);
  EXPECT_EQ(loop.events_processed(), 3u);
  EXPECT_EQ(registry_events(loop), 3u);

  EXPECT_EQ(loop.run_all(), 2u);
  EXPECT_EQ(loop.events_processed(), 5u);
  EXPECT_EQ(registry_events(loop), 5u);

  // A throwing callback leaves the run early; its event still counts.
  loop.schedule_after(kSecond, [] {});
  loop.schedule_after(2 * kSecond,
                      [] { throw osprey::util::Error("callback failed"); });
  loop.schedule_after(3 * kSecond, [] {});
  EXPECT_THROW(loop.run_all(), osprey::util::Error);
  EXPECT_EQ(loop.events_processed(), 7u);
  EXPECT_EQ(registry_events(loop), 7u);
  EXPECT_EQ(loop.run_until(loop.now() + kHour), 1u);
  EXPECT_EQ(registry_events(loop), 8u);

  // A run started from inside a callback is not counted twice.
  loop.schedule_after(kSecond, [&] {
    loop.schedule_after(kSecond, [] {});
    loop.run_until(loop.now() + kSecond);
  });
  loop.run_all();
  EXPECT_EQ(loop.events_processed(), 10u);
  EXPECT_EQ(registry_events(loop), 10u);
}

// The counter is exact mid-run: a callback reading it sees every event
// fired so far, its own included.
TEST(EventLoop, RegistryCounterIsExactInsideCallbacks) {
  of::EventLoop loop;
  std::vector<std::uint64_t> seen;
  auto record = [&] { seen.push_back(registry_events(loop)); };
  for (int i = 1; i <= 3; ++i) loop.schedule_at(i * kSecond, record);
  loop.schedule_at(4 * kSecond, [&] {
    record();
    loop.schedule_after(kSecond, record);
  });
  EXPECT_EQ(loop.run_until(2 * kSecond), 2u);
  loop.run_all();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.events_processed(), 5u);
}

// --- cancel/slot-reuse contract ------------------------------------------
// An EventId names one scheduling, not a storage location: once that
// event fired or was cancelled the id is dead, even if a newer event now
// occupies whatever storage the old one used.

TEST(EventLoop, StaleIdOfFiredEventDoesNotCancelNewerEvent) {
  of::EventLoop loop;
  of::EventId fired_id = loop.schedule_at(kSecond, [] {});
  loop.run_all();
  EXPECT_FALSE(loop.cancel(fired_id));

  int newer = 0;
  loop.schedule_at(2 * kSecond, [&] { ++newer; });
  EXPECT_FALSE(loop.cancel(fired_id));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_all();
  EXPECT_EQ(newer, 1);
}

TEST(EventLoop, StaleIdOfCancelledEventDoesNotCancelNewerEvent) {
  of::EventLoop loop;
  of::EventId cancelled = loop.schedule_at(kSecond, [] {});
  EXPECT_TRUE(loop.cancel(cancelled));

  int newer = 0;
  of::EventId fresh = loop.schedule_at(kSecond, [&] { ++newer; });
  EXPECT_NE(fresh, cancelled);
  EXPECT_FALSE(loop.cancel(cancelled));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_all();
  EXPECT_EQ(newer, 1);
  EXPECT_FALSE(loop.cancel(fresh));
}

TEST(EventLoop, StaleIdsStayDeadAcrossManyReuses) {
  of::EventLoop loop;
  std::vector<of::EventId> dead;
  for (int round = 0; round < 50; ++round) {
    of::EventId id = loop.schedule_after(kSecond, [] {});
    if (round % 2 == 0) {
      EXPECT_TRUE(loop.cancel(id));
    } else {
      loop.run_all();
    }
    dead.push_back(id);
  }
  int live = 0;
  of::EventId keep = loop.schedule_after(kSecond, [&] { ++live; });
  for (of::EventId id : dead) {
    EXPECT_NE(id, keep);
    EXPECT_FALSE(loop.cancel(id));
  }
  loop.run_all();
  EXPECT_EQ(live, 1);
}

TEST(EventLoop, CancelReleasesCapturesImmediately) {
  of::EventLoop loop;
  auto held = std::make_shared<int>(7);
  of::EventId id = loop.schedule_at(kHour, [held] { (void)*held; });
  loop.schedule_at(kSecond, [] {});
  EXPECT_EQ(held.use_count(), 2);
  EXPECT_TRUE(loop.cancel(id));
  // Released at cancel, not when the loop later pops the dead entry.
  EXPECT_EQ(held.use_count(), 1);
  loop.run_all();
  EXPECT_EQ(held.use_count(), 1);
}

TEST(EventLoop, FiredCallbackReleasesCaptures) {
  of::EventLoop loop;
  std::weak_ptr<int> watch;
  {
    auto held = std::make_shared<int>(8);
    watch = held;
    loop.schedule_at(kSecond, [held] { (void)*held; });
  }
  EXPECT_FALSE(watch.expired());  // the pending callback owns it
  loop.run_all();
  EXPECT_TRUE(watch.expired());
}

TEST(EventLoop, SelfCancelFromInsideCallbackReturnsFalse) {
  of::EventLoop loop;
  of::EventId self = 0;
  bool ran = false;
  bool cancelled_self = true;
  self = loop.schedule_at(kSecond, [&] {
    ran = true;
    cancelled_self = loop.cancel(self);
  });
  loop.run_all();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(cancelled_self);
}

TEST(EventLoop, CallbackMayCancelOtherPendingEvents) {
  of::EventLoop loop;
  std::vector<int> order;
  of::EventId later = 0;
  loop.schedule_at(kSecond, [&] {
    order.push_back(1);
    EXPECT_TRUE(loop.cancel(later));
  });
  later = loop.schedule_at(kSecond, [&] { order.push_back(2); });
  loop.schedule_at(kSecond, [&] { order.push_back(3); });
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventLoop, PendingAndEmptyTrackFireCancelAndRearm) {
  of::EventLoop loop;
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);

  of::EventId a = loop.schedule_at(kSecond, [] {});
  of::EventId b = loop.schedule_at(2 * kSecond, [] {});
  EXPECT_FALSE(loop.empty());
  EXPECT_EQ(loop.pending(), 2u);

  EXPECT_TRUE(loop.cancel(a));
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.cancel(a));
  EXPECT_EQ(loop.pending(), 1u);

  // A callback that re-arms itself keeps exactly one event pending.
  int rearms = 0;
  std::vector<std::size_t> pending_inside;  // self is never counted
  std::function<void()> rearm = [&] {
    pending_inside.push_back(loop.pending());
    if (++rearms < 3) loop.schedule_after(kSecond, rearm);
  };
  loop.schedule_at(kSecond, rearm);
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(loop.run_until(kSecond), 1u);
  EXPECT_EQ(loop.pending(), 2u);  // b plus the re-armed event

  EXPECT_TRUE(loop.cancel(b));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_all();
  EXPECT_EQ(rearms, 3);
  EXPECT_EQ(pending_inside, (std::vector<std::size_t>{1, 0, 0}));
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, EqualTimeFifoHoldsAfterSlotRecycling) {
  of::EventLoop loop;
  // Churn: fire some events and cancel others in an interleaved order so
  // whatever storage the loop recycles is handed out scrambled.
  std::vector<of::EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(loop.schedule_at((i % 7 + 1) * kSecond, [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) loop.cancel(ids[i]);
  loop.run_until(4 * kSecond);
  for (std::size_t i = 1; i < ids.size(); i += 3) loop.cancel(ids[i]);
  loop.run_all();
  ASSERT_TRUE(loop.empty());

  std::vector<int> order;
  const of::SimTime t = loop.now() + kSecond;
  for (int i = 0; i < 300; ++i) {
    of::EventId id = loop.schedule_at(t, [&order, i] { order.push_back(i); });
    if (i % 5 == 4) {
      loop.cancel(id);  // holes in the middle of the equal-time run
    }
  }
  // Events scheduled from inside an equal-time callback go after every
  // event already queued for that time.
  loop.schedule_at(t, [&] {
    order.push_back(1000);
    loop.schedule_at(t, [&] { order.push_back(1001); });
  });
  loop.run_all();

  std::vector<int> expected;
  for (int i = 0; i < 300; ++i) {
    if (i % 5 != 4) expected.push_back(i);
  }
  expected.push_back(1000);
  expected.push_back(1001);
  EXPECT_EQ(order, expected);
}

TEST(EventLoop, AcceptsLvalueStdFunctionAndLeavesItIntact) {
  of::EventLoop loop;
  int calls = 0;
  std::function<void()> fn = [&calls] { ++calls; };
  loop.schedule_after(kSecond, fn);
  loop.schedule_after(kSecond, fn);
  ASSERT_TRUE(static_cast<bool>(fn));
  loop.run_all();
  EXPECT_EQ(calls, 2);
  fn();
  EXPECT_EQ(calls, 3);
}

TEST(EventLoop, NullCallbackIsRejected) {
  of::EventLoop loop;
  std::function<void()> empty_fn;
  EXPECT_THROW(loop.schedule_at(kSecond, empty_fn),
               osprey::util::InvalidArgument);
  EXPECT_TRUE(loop.empty());
}
