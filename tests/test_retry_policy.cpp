/// Property tests for the shared recovery primitives (util/retry.hpp):
/// exponential backoff monotonicity up to the cap, jitter bounds and
/// determinism, and full state-machine coverage of the CircuitBreaker
/// driven by explicit SimTime values (the same virtual clock the
/// EventLoop advances).

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "fabric/event_loop.hpp"
#include "util/error.hpp"
#include "util/retry.hpp"

namespace ou = osprey::util;
using ou::BreakerState;
using ou::CircuitBreaker;
using ou::CircuitBreakerConfig;
using ou::RetryPolicy;
using ou::SimTime;
using ou::kHour;
using ou::kMinute;
using ou::kSecond;

// ---------------------------------------------------------------------------
// RetryPolicy: backoff schedule properties
// ---------------------------------------------------------------------------

TEST(RetryPolicy, BackoffIsMonotoneAndReachesTheCap) {
  // Property swept across several (initial, multiplier, cap) shapes:
  // backoff(attempt) never decreases and saturates exactly at cap().
  struct Shape {
    SimTime initial;
    double multiplier;
    SimTime max_backoff;  // 0 = default 8x cap
  };
  std::vector<Shape> shapes = {
      {5 * kMinute, 2.0, 0},
      {kSecond, 1.5, 90 * kSecond},
      {kMinute, 3.0, 2 * kHour},
      {10 * kMinute, 1.0, 0},  // constant backoff is a legal degenerate
      {1, 10.0, kHour},
  };
  for (const Shape& shape : shapes) {
    RetryPolicy policy;
    policy.max_attempts = 50;
    policy.initial_backoff = shape.initial;
    policy.multiplier = shape.multiplier;
    policy.max_backoff = shape.max_backoff;
    SimTime prev = 0;
    bool saturated = false;
    for (int attempt = 1; attempt <= 50; ++attempt) {
      SimTime b = policy.backoff(attempt);
      EXPECT_GE(b, 1) << "attempt " << attempt;
      EXPECT_GE(b, prev) << "backoff must be monotone, attempt " << attempt;
      EXPECT_LE(b, policy.cap()) << "attempt " << attempt;
      saturated = saturated || b == policy.cap();
      prev = b;
    }
    if (shape.multiplier > 1.0) {
      EXPECT_TRUE(saturated) << "50 doublings must hit the cap";
      EXPECT_EQ(prev, policy.cap());
    }
  }
}

TEST(RetryPolicy, FirstBackoffIsTheInitialAndCapDefaultsTo8x) {
  RetryPolicy policy;
  policy.initial_backoff = 10 * kMinute;
  EXPECT_EQ(policy.backoff(1), 10 * kMinute);
  EXPECT_EQ(policy.cap(), 80 * kMinute);
  policy.max_backoff = kHour;
  EXPECT_EQ(policy.cap(), kHour);
}

TEST(RetryPolicy, JitterStaysWithinBoundsForEveryAttemptAndKey) {
  RetryPolicy policy;
  policy.initial_backoff = 10 * kMinute;
  policy.multiplier = 2.0;
  policy.jitter = 0.25;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    policy.seed = seed * 0x9e3779b9ULL + 1;
    for (int attempt = 1; attempt <= 12; ++attempt) {
      SimTime base = policy.backoff(attempt);
      for (std::uint64_t key = 0; key < 16; ++key) {
        SimTime j = policy.jittered(attempt, key);
        // llround can move the bound by at most half a millisecond.
        EXPECT_GE(j, static_cast<SimTime>(base * (1.0 - policy.jitter)) - 1);
        EXPECT_LE(j, static_cast<SimTime>(base * (1.0 + policy.jitter)) + 1);
        EXPECT_GE(j, 1);
      }
    }
  }
}

TEST(RetryPolicy, JitterIsDeterministicPerSeedAndSpreadsAcrossKeys) {
  RetryPolicy policy;
  policy.initial_backoff = 10 * kMinute;
  policy.jitter = 0.5;
  policy.seed = 0xC0FFEE;
  // Replay: identical inputs, identical schedule.
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(policy.jittered(attempt, 42), policy.jittered(attempt, 42));
  }
  // Spread: distinct keys must not all collapse onto one value.
  bool any_different = false;
  for (std::uint64_t key = 1; key < 32; ++key) {
    if (policy.jittered(1, key) != policy.jittered(1, 0)) any_different = true;
  }
  EXPECT_TRUE(any_different);
  // Zero jitter is exactly the deterministic schedule.
  policy.jitter = 0.0;
  EXPECT_EQ(policy.jittered(3, 99), policy.backoff(3));
}

TEST(RetryPolicy, InvalidParametersAreRejected) {
  RetryPolicy policy;
  policy.initial_backoff = 0;
  EXPECT_THROW(policy.backoff(1), ou::InvalidArgument);
  policy.initial_backoff = kMinute;
  policy.multiplier = 0.5;
  EXPECT_THROW(policy.backoff(1), ou::InvalidArgument);
  policy.multiplier = 2.0;
  policy.jitter = 1.0;
  EXPECT_THROW(policy.jittered(1), ou::InvalidArgument);
  policy.jitter = -0.1;
  EXPECT_THROW(policy.jittered(1), ou::InvalidArgument);
}

TEST(RetryPolicy, NonPositiveAttemptsClampToTheInitialBackoff) {
  // Regression: backoff(0)/backoff(-1) used to throw from deep inside
  // the recovery path. A scheduler bookkeeping bug now degrades to the
  // initial backoff instead of killing the server.
  RetryPolicy policy;
  policy.initial_backoff = 10 * kMinute;
  policy.jitter = 0.25;
  EXPECT_EQ(policy.backoff(0), policy.backoff(1));
  EXPECT_EQ(policy.backoff(-7), policy.backoff(1));
  EXPECT_EQ(policy.jittered(0, 42), policy.jittered(1, 42));
  EXPECT_EQ(policy.jittered(-3, 42), policy.jittered(1, 42));
}

TEST(RetryPolicy, HugeAttemptCountsSaturateAtTheCapWithoutOverflow) {
  // Regression: initial * multiplier^(attempt-1) overflowed SimTime
  // before the cap clamp for large attempt counts. The schedule must
  // saturate exactly at cap() for arbitrarily large attempts.
  RetryPolicy policy;
  policy.initial_backoff = 5 * kMinute;
  policy.multiplier = 2.0;
  policy.max_backoff = kHour;
  for (int attempt : {60, 63, 64, 100, 1000, 1 << 30}) {
    EXPECT_EQ(policy.backoff(attempt), kHour) << "attempt " << attempt;
  }
  // Jitter on a saturated base must stay within SimTime too.
  policy.jitter = 0.5;
  for (int attempt : {100, 1 << 30}) {
    SimTime j = policy.jittered(attempt, 7);
    EXPECT_GE(j, static_cast<SimTime>(kHour * 0.5) - 1);
    EXPECT_LE(j, static_cast<SimTime>(kHour * 1.5) + 1);
  }
}

TEST(RetryPolicy, CapSaturatesNearTheSimTimeCeiling) {
  // Regression: the default 8x cap computed initial_backoff * 8 in
  // SimTime and wrapped negative for huge initial backoffs.
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  RetryPolicy policy;
  policy.initial_backoff = kMax / 2;
  EXPECT_EQ(policy.cap(), kMax);
  EXPECT_GT(policy.backoff(1), 0);
  EXPECT_LE(policy.backoff(1), kMax);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    SimTime b = policy.backoff(attempt);
    EXPECT_GT(b, 0) << "attempt " << attempt;
    EXPECT_LE(b, policy.cap());
  }
  EXPECT_EQ(policy.backoff(8), kMax);
  // An explicit cap at the ceiling round-trips unharmed as well.
  policy.max_backoff = kMax;
  EXPECT_EQ(policy.backoff(64), kMax);
}

// ---------------------------------------------------------------------------
// CircuitBreaker: full state-machine coverage, driven by the EventLoop's
// virtual clock.
// ---------------------------------------------------------------------------

namespace {

CircuitBreakerConfig breaker_config(int threshold, SimTime open_timeout,
                                    int half_open_successes) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = threshold;
  cfg.open_timeout = open_timeout;
  cfg.half_open_successes = half_open_successes;
  return cfg;
}

}  // namespace

TEST(CircuitBreaker, DisabledBreakerAlwaysAllows) {
  CircuitBreaker breaker;  // threshold 0 = disabled
  for (SimTime t = 0; t < 10; ++t) {
    breaker.on_failure(t);
    EXPECT_TRUE(breaker.allow(t));
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  }
  EXPECT_EQ(breaker.times_opened(), 0u);
}

TEST(CircuitBreaker, ClosedTripsOpenAfterThresholdConsecutiveFailures) {
  CircuitBreaker breaker(breaker_config(3, 30 * kMinute, 1));
  osprey::fabric::EventLoop loop;
  breaker.on_failure(loop.now());
  breaker.on_failure(loop.now());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow(loop.now()));
  breaker.on_failure(loop.now());  // third consecutive failure trips it
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow(loop.now()));
  EXPECT_EQ(breaker.times_opened(), 1u);
  EXPECT_EQ(breaker.reopen_at(), loop.now() + 30 * kMinute);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveFailureCount) {
  CircuitBreaker breaker(breaker_config(3, 30 * kMinute, 1));
  for (int round = 0; round < 5; ++round) {
    breaker.on_failure(0);
    breaker.on_failure(0);
    breaker.on_success(0);  // never three in a row
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.times_opened(), 0u);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreaker, OpenAdmitsHalfOpenProbeExactlyAtTheTimeout) {
  CircuitBreaker breaker(breaker_config(1, kHour, 1));
  osprey::fabric::EventLoop loop;
  breaker.on_failure(loop.now());
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  // Drive the virtual clock forward and poll allow() as the EventLoop
  // would: denied strictly before reopen_at, admitted at/after it.
  bool allowed_early = false;
  bool allowed_at_timeout = false;
  loop.schedule_at(kHour - 1, [&] { allowed_early = breaker.allow(loop.now()); });
  loop.schedule_at(kHour, [&] { allowed_at_timeout = breaker.allow(loop.now()); });
  loop.run_all();
  EXPECT_FALSE(allowed_early);
  EXPECT_TRUE(allowed_at_timeout);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, HalfOpenFailureReopensAndRestartsTheTimer) {
  CircuitBreaker breaker(breaker_config(1, kHour, 1));
  breaker.on_failure(0);
  EXPECT_TRUE(breaker.allow(kHour));  // -> half-open
  breaker.on_failure(kHour);          // failed probe
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  // The open timeout restarts from the probe failure, not the original trip.
  EXPECT_EQ(breaker.reopen_at(), kHour + kHour);
  EXPECT_FALSE(breaker.allow(kHour + kHour - 1));
  EXPECT_TRUE(breaker.allow(2 * kHour));
}

TEST(CircuitBreaker, HalfOpenClosesAfterEnoughProbeSuccesses) {
  CircuitBreaker breaker(breaker_config(1, kHour, 2));
  breaker.on_failure(0);
  EXPECT_TRUE(breaker.allow(kHour));  // -> half-open
  breaker.on_success(kHour);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen) << "needs 2 successes";
  breaker.on_success(kHour + kMinute);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow(kHour + kMinute));
  // Back in closed, the failure counter starts fresh.
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreaker, ProbeSuccessCounterResetsOnEachHalfOpenEntry) {
  CircuitBreaker breaker(breaker_config(1, kHour, 2));
  breaker.on_failure(0);
  EXPECT_TRUE(breaker.allow(kHour));
  breaker.on_success(kHour);   // 1 of 2
  breaker.on_failure(kHour);   // probe fails -> open again
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.allow(2 * kHour + kHour));
  breaker.on_success(3 * kHour);
  // The earlier partial probe success must not carry over.
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.on_success(3 * kHour);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, ReopenAtIsEngagedOnlyWhileOpen) {
  // Regression: reopen_at() used to return opened_at_ + open_timeout
  // unconditionally — a bogus "reopens at 30min" for a breaker that
  // never tripped. It now answers only for the open state.
  CircuitBreaker breaker(breaker_config(1, kHour, 1));
  EXPECT_EQ(breaker.reopen_at(), std::nullopt) << "never opened";

  breaker.on_failure(5 * kMinute);
  ASSERT_TRUE(breaker.reopen_at().has_value());
  EXPECT_EQ(*breaker.reopen_at(), 5 * kMinute + kHour);

  EXPECT_TRUE(breaker.allow(5 * kMinute + kHour));  // -> half-open
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.reopen_at(), std::nullopt) << "half-open has no reopen";

  breaker.on_success(5 * kMinute + kHour);  // -> closed
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.reopen_at(), std::nullopt) << "closed has no reopen";

  // A disabled breaker never opens, so never has a reopen time.
  CircuitBreaker disabled;
  disabled.on_failure(0);
  EXPECT_EQ(disabled.reopen_at(), std::nullopt);
}

TEST(CircuitBreaker, StateNamesAndValidation) {
  EXPECT_STREQ(ou::breaker_state_name(BreakerState::kClosed), "closed");
  EXPECT_STREQ(ou::breaker_state_name(BreakerState::kOpen), "open");
  EXPECT_STREQ(ou::breaker_state_name(BreakerState::kHalfOpen), "half-open");
  EXPECT_THROW(CircuitBreaker(breaker_config(-1, kHour, 1)),
               ou::InvalidArgument);
  EXPECT_THROW(CircuitBreaker(breaker_config(1, 0, 1)), ou::InvalidArgument);
  EXPECT_THROW(CircuitBreaker(breaker_config(1, kHour, 0)),
               ou::InvalidArgument);
}

TEST(CircuitBreaker, FullLifecycleUnderTheEventLoop) {
  // closed -> open -> half-open -> open -> half-open -> closed, with
  // every transition driven by events on the virtual clock.
  CircuitBreaker breaker(breaker_config(2, 10 * kMinute, 1));
  osprey::fabric::EventLoop loop;
  std::vector<BreakerState> observed;
  auto observe = [&] { observed.push_back(breaker.state()); };

  loop.schedule_at(0, [&] { breaker.on_failure(loop.now()); observe(); });
  loop.schedule_at(kMinute, [&] { breaker.on_failure(loop.now()); observe(); });
  // Denied while open.
  loop.schedule_at(5 * kMinute, [&] {
    EXPECT_FALSE(breaker.allow(loop.now()));
    observe();
  });
  // Probe admitted, but fails -> re-open.
  loop.schedule_at(12 * kMinute, [&] {
    EXPECT_TRUE(breaker.allow(loop.now()));
    breaker.on_failure(loop.now());
    observe();
  });
  // Next probe succeeds -> closed.
  loop.schedule_at(23 * kMinute, [&] {
    EXPECT_TRUE(breaker.allow(loop.now()));
    breaker.on_success(loop.now());
    observe();
  });
  loop.run_all();

  std::vector<BreakerState> expected = {
      BreakerState::kClosed,  // 1 failure, below threshold
      BreakerState::kOpen,    // 2nd failure trips
      BreakerState::kOpen,    // still open at 5min
      BreakerState::kOpen,    // failed probe re-opens
      BreakerState::kClosed,  // successful probe closes
  };
  ASSERT_EQ(observed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(observed[i], expected[i]) << "transition " << i;
  }
  EXPECT_EQ(breaker.times_opened(), 2u);
}
