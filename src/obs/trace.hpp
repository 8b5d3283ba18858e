#pragma once

/// \file trace.hpp
/// Deterministic tracing for the OSPREY platform: spans and instant
/// events keyed on *virtual* time (the fabric's SimTime, or an injected
/// util::Clock for the EMEWS layer), so a trace of a simulated workflow
/// replays byte-identically for the same seed — including chaos seeds.
///
/// Model:
///  - a span has a begin/end timestamp (nanoseconds), a category
///    (transfer/compute/flow/aero/emews/gsa), a parent span id and a
///    success flag; an instant event is a zero-duration marker.
///  - parentage is established either explicitly or through the calling
///    thread's *current span* (CurrentSpanGuard): the single-threaded
///    event loop sets the guard around a flow step's dispatch, so the
///    transfers and compute tasks submitted inside it nest under it.
///  - recording is thread-safe (util::Mutex + TSA annotations): the
///    parallel GP/MCMC workers may record through the same recorder.
///    Timestamps are virtual, so replays of the same seed produce the
///    same set of spans; the Chrome exporter (obs/export.hpp) sorts
///    into a canonical order, making the exported bytes identical even
///    when thread interleaving varied the recording order.
///  - wall time is opt-in (set_wall_clock) for bench runs; it annotates
///    spans with real nanoseconds and intentionally breaks byte
///    identity, so it is off by default.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/sim_time.hpp"

namespace osprey::obs {

enum class Category {
  kTransfer = 0,
  kCompute,
  kFlow,
  kAero,
  kEmews,
  kGsa,
  kServe,
  kOther,
};

inline constexpr int kNumCategories = 8;

const char* category_name(Category category);
/// Inverse of category_name (kOther for unknown names).
Category category_from_name(const std::string& name);

using SpanId = std::uint64_t;

/// The null span: "no parent" / "nothing recorded".
inline constexpr SpanId kNoSpan = 0;
/// Sentinel parent: inherit the calling thread's current span.
inline constexpr SpanId kInheritParent = ~static_cast<SpanId>(0);

/// Fabric virtual time (integral milliseconds) as trace nanoseconds.
inline std::uint64_t sim_ns(osprey::util::SimTime t) {
  return static_cast<std::uint64_t>(t) * 1'000'000ull;
}

/// One recorded span or instant event.
struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  Category category = Category::kOther;
  std::string name;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  bool open = false;     // begun but not yet ended
  bool ok = true;        // false: the operation the span covers failed
  bool instant = false;  // zero-duration marker event
  std::string detail;    // free-form annotation (bytes, error, cause)
  /// Shard-label dimension (set_shard_label): which shard/partition
  /// recorded the span. Empty on unsharded recorders, so single-loop
  /// traces export byte-identically to before the dimension existed.
  std::string shard;
  // Optional real-time annotation (set_wall_clock); 0 when disabled.
  std::uint64_t wall_begin_ns = 0;
  std::uint64_t wall_end_ns = 0;

  std::uint64_t duration_ns() const {
    return end_ns >= begin_ns ? end_ns - begin_ns : 0;
  }
};

/// The calling thread's current span (kNoSpan outside any guard).
SpanId current_span();

/// Thread-safe recorder of spans and instants. Services hold a
/// non-owning `TraceRecorder*`; a null pointer means no tracing and
/// zero overhead. Never logs (log sinks may record into it).
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// A disabled recorder drops everything (begin_span returns kNoSpan).
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Annotate spans with real time from `wall` (nullptr disables). For
  /// bench runs only: wall annotations break replay byte-identity.
  void set_wall_clock(const osprey::util::Clock* wall) {
    wall_.store(wall, std::memory_order_release);
  }

  /// Stamp every subsequently recorded span/instant with `label` (the
  /// shard-label dimension; "" reverts to unlabeled). Set once at
  /// wiring time, before recording starts: per-shard recorders get the
  /// partition key, so merged exports keep each span attributable.
  void set_shard_label(std::string label);

  /// Open a span at virtual `begin_ns`. `parent` defaults to the
  /// calling thread's current span.
  SpanId begin_span(Category category, std::string name,
                    std::uint64_t begin_ns, SpanId parent = kInheritParent,
                    std::string detail = {});

  /// Close a span. `error` (when non-empty) replaces the detail. Safe
  /// to call with kNoSpan (no-op), so callers need no null checks for
  /// spans begun while the recorder was disabled.
  void end_span(SpanId id, std::uint64_t end_ns, bool ok = true,
                const std::string& error = {});

  /// Record a zero-duration marker event.
  SpanId instant(Category category, std::string name, std::uint64_t at_ns,
                 SpanId parent = kInheritParent, std::string detail = {});

  /// Copy of every record, in recording order (ids ascending).
  std::vector<SpanRecord> snapshot() const;

  std::size_t span_count() const;
  std::size_t open_count() const;
  void clear();

 private:
  mutable osprey::util::Mutex mutex_;
  std::vector<SpanRecord> spans_ OSPREY_GUARDED_BY(mutex_);
  std::string shard_label_ OSPREY_GUARDED_BY(mutex_);
  std::size_t open_ OSPREY_GUARDED_BY(mutex_) = 0;
  std::atomic<bool> enabled_{true};
  std::atomic<const osprey::util::Clock*> wall_{nullptr};
};

/// RAII: makes `span` the calling thread's current span; restores the
/// previous one on destruction. Does NOT end the span (spans of the
/// simulated fabric end later in virtual time). kNoSpan is allowed and
/// clears the slot for the scope.
class CurrentSpanGuard {
 public:
  explicit CurrentSpanGuard(SpanId span);
  ~CurrentSpanGuard();

  CurrentSpanGuard(const CurrentSpanGuard&) = delete;
  CurrentSpanGuard& operator=(const CurrentSpanGuard&) = delete;

 private:
  SpanId previous_;
};

/// A util::LogSink that records every log line as an instant event
/// (name "log:<component>", detail = message) parented to the calling
/// thread's current span, timestamped from `clock`. Install with
/// util::set_log_sink; the line is recorded instead of printed.
osprey::util::LogSink make_trace_log_sink(TraceRecorder& recorder,
                                          const osprey::util::Clock& clock);

}  // namespace osprey::obs
