#pragma once

/// \file retry.hpp
/// Shared recovery primitives for the orchestration layers: an
/// exponential-backoff RetryPolicy (with deterministic jitter and an
/// upper cap) and a CircuitBreaker with half-open probes. Both are pure
/// state machines over explicit SimTime arguments — they never read a
/// wall clock — so recovery behaviour driven by the SimClock/EventLoop
/// is exactly replayable.

#include <cstdint>
#include <optional>

#include "util/sim_time.hpp"

namespace osprey::util {

/// Exponential backoff with a cap and deterministic jitter.
///
/// `backoff(attempt)` for attempt = 1, 2, ... is
///   min(initial_backoff * multiplier^(attempt-1), max_backoff)
/// and is monotone non-decreasing. `jittered(attempt, key)` scales that
/// by a factor in [1 - jitter, 1 + jitter] drawn from a counter-based
/// hash of (seed, attempt, key), so two runs with the same seed produce
/// identical schedules.
struct RetryPolicy {
  /// Retries after the initial try; 0 disables retrying.
  int max_attempts = 0;
  SimTime initial_backoff = 5 * kMinute;
  double multiplier = 2.0;
  /// Upper bound on any single backoff. <= 0 means "8x initial".
  SimTime max_backoff = 0;
  /// Relative jitter amplitude in [0, 1). 0 = deterministic schedule
  /// with no spread.
  double jitter = 0.0;
  /// Seed for the jitter hash (counter-based; no global RNG state).
  std::uint64_t seed = 0x0517ULL;

  bool enabled() const { return max_attempts > 0; }

  /// Effective cap (resolves the <=0 default). Saturates instead of
  /// overflowing when `initial_backoff` is within 8x of the SimTime
  /// ceiling.
  SimTime cap() const;

  /// Un-jittered backoff before retry `attempt` (1-based). Monotone
  /// non-decreasing in `attempt`, clamped to [1, cap()]. The growth is
  /// computed in floating point and explicitly saturated at cap(), so
  /// huge attempt counts (or extreme multipliers) can never overflow
  /// SimTime. Non-positive `attempt` values are clamped to 1: a retry
  /// scheduler with a bookkeeping bug gets the initial backoff, not a
  /// crash in the recovery path.
  SimTime backoff(int attempt) const;

  /// Backoff with deterministic jitter; `key` distinguishes independent
  /// consumers (hash of a flow name, task id, ...). Always within
  /// [backoff*(1-jitter), backoff*(1+jitter)] and at least 1 ms.
  /// `attempt` is clamped like backoff().
  SimTime jittered(int attempt, std::uint64_t key = 0) const;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* breaker_state_name(BreakerState s);

struct CircuitBreakerConfig {
  /// Consecutive failures that trip the breaker open. 0 disables the
  /// breaker entirely (allow() is always true).
  int failure_threshold = 0;
  /// How long the breaker stays open before admitting half-open probes.
  SimTime open_timeout = 30 * kMinute;
  /// Successful probes required in half-open before closing again.
  int half_open_successes = 1;

  bool enabled() const { return failure_threshold > 0; }
};

/// Classic three-state circuit breaker. All transitions happen inside
/// the three calls below, against the caller-provided virtual `now` —
/// deterministic under the SimClock by construction.
///
///   closed --[threshold consecutive failures]--> open
///   open   --[open_timeout elapsed, via allow()]--> half-open
///   half-open --[half_open_successes successes]--> closed
///   half-open --[any failure]--> open (timer restarts)
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  const CircuitBreakerConfig& config() const { return config_; }

  /// May the protected operation run at `now`? Transitions
  /// open -> half-open when the open timeout has elapsed.
  bool allow(SimTime now);

  void on_success(SimTime now);
  void on_failure(SimTime now);

  BreakerState state() const { return state_; }
  /// When an open breaker will next admit a probe. nullopt unless the
  /// breaker is currently open: a breaker that never tripped (or has
  /// since half-opened/closed) has no reopen time, and the old
  /// `opened_at_ + open_timeout` answer for those states was bogus.
  std::optional<SimTime> reopen_at() const {
    if (state_ != BreakerState::kOpen) return std::nullopt;
    return opened_at_ + config_.open_timeout;
  }

  int consecutive_failures() const { return consecutive_failures_; }
  std::uint64_t times_opened() const { return times_opened_; }

 private:
  void trip(SimTime now);

  CircuitBreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  SimTime opened_at_ = 0;
  std::uint64_t times_opened_ = 0;
};

}  // namespace osprey::util
