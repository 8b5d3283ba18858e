#pragma once

/// \file metrics.hpp
/// Counters, gauges and fixed-bucket histograms with deterministic
/// snapshot ordering (metric names sorted; bucket bounds fixed at
/// registration). Instruments are owned by a MetricsRegistry and live
/// as long as it does, so services bind `Counter*`/`Histogram*` once at
/// wiring time and write them with plain loads and stores afterwards.
/// The Prometheus text exporter lives in obs/export.hpp.
///
/// Counters and histograms are loop-confined (DESIGN.md §4d): one
/// thread at a time writes them, the thread running the loop that owns
/// the registry, and readers read after the run or across a join. The
/// fields are plain, so a second concurrent writer or reader is a data
/// race that ThreadSanitizer reports rather than a silently lost count.
/// Registration itself is locked; gauges stay atomic.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/value.hpp"

namespace osprey::obs {

/// Monotonic event counter (loop-confined: one writer at a time).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t delta = 1) { v_ += delta; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time value (lock-free set/add; e.g. open circuit breakers).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram (loop-confined, like Counter). Buckets are defined by strictly increasing
/// upper bounds plus an implicit +Inf overflow bucket; a sample equal
/// to a bound lands in that bound's bucket (Prometheus `le` semantics).
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing
  /// (InvalidArgument otherwise).
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double x);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }  ///< 0 when empty
  double max() const { return max_; }  ///< 0 when empty

  /// Upper bounds as registered (without the implicit +Inf).
  std::vector<double> bounds() const { return bounds_; }
  /// Per-bucket counts, size bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const { return buckets_; }

  /// Approximate q-quantile (q in [0,1]) by linear interpolation within
  /// the bucket containing the target rank, clamped to the observed
  /// [min, max]. Returns 0 for an empty histogram.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;  // immutable after construction
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named instrument registry. Instruments are created on first use and
/// returned by reference on later calls with the same name; references
/// stay valid for the registry's lifetime. Registering the same name
/// under a different instrument kind throws InvalidArgument. Names are
/// kept in a std::map, so snapshots and the Prometheus exposition
/// iterate in a deterministic (sorted) order.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = {});
  Gauge& gauge(const std::string& name, const std::string& help = {});
  /// `upper_bounds` is used on first registration only; later calls
  /// with the same name return the existing histogram.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds,
                       const std::string& help = {});

  /// Help string registered for `name` (empty if none).
  std::string help(const std::string& name) const;

  /// Deterministic JSON-able snapshot:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {count, sum, bounds, buckets}}}
  osprey::util::Value snapshot() const;

  std::size_t size() const;

  /// Sorted names per kind (for exporters).
  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;
  std::vector<std::string> histogram_names() const;

  /// Lookup without creation; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

 private:
  void check_kind_locked(const std::string& name, const char* kind) const
      OSPREY_REQUIRES(mutex_);

  mutable osprey::util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      OSPREY_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      OSPREY_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      OSPREY_GUARDED_BY(mutex_);
  std::map<std::string, std::string> help_ OSPREY_GUARDED_BY(mutex_);
};

}  // namespace osprey::obs
