#include "obs/metrics.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace osprey::obs {

using osprey::util::MutexLock;
using osprey::util::Value;
using osprey::util::ValueArray;
using osprey::util::ValueObject;

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1, 0) {
  OSPREY_REQUIRE(!bounds_.empty(), "histogram needs at least one bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    OSPREY_REQUIRE(bounds_[i - 1] < bounds_[i],
                   "histogram bounds must be strictly increasing");
  }
}

void Histogram::observe(double x) {
  // First bucket whose upper bound is >= x (le semantics); past the
  // last bound the sample lands in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  ++buckets_[bucket];
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

double Histogram::quantile(double q) const {
  OSPREY_REQUIRE(q >= 0.0 && q <= 1.0, "quantile wants q in [0,1]");
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double before = 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const double in_bucket = static_cast<double>(buckets_[b]);
    if (in_bucket == 0.0 || before + in_bucket < target) {
      before += in_bucket;
      continue;
    }
    // Interpolate within [lo, hi]; the first bucket starts at the
    // observed min and the overflow bucket ends at the observed max.
    const double lo = b == 0 ? min_ : bounds_[b - 1];
    const double hi = b < bounds_.size() ? bounds_[b] : max_;
    const double frac = (target - before) / in_bucket;
    const double v = lo + frac * (hi - lo);
    return std::clamp(v, min_, max_);
  }
  return max_;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    check_kind_locked(name, "counter");
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    if (!help.empty()) help_[name] = help;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    check_kind_locked(name, "gauge");
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    if (!help.empty()) help_[name] = help;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds,
                                      const std::string& help) {
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    check_kind_locked(name, "histogram");
    it = histograms_
             .emplace(name,
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
    if (!help.empty()) help_[name] = help;
  }
  return *it->second;
}

void MetricsRegistry::check_kind_locked(const std::string& name,
                                        const char* kind) const {
  const bool taken = counters_.count(name) != 0 || gauges_.count(name) != 0 ||
                     histograms_.count(name) != 0;
  if (taken) {
    throw osprey::util::InvalidArgument(
        "metric name already registered under a different kind: " + name +
        " (requested " + kind + ")");
  }
}

std::string MetricsRegistry::help(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = help_.find(name);
  return it == help_.end() ? std::string() : it->second;
}

Value MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  ValueObject counters;
  for (const auto& [name, c] : counters_) {
    counters[name] = static_cast<std::int64_t>(c->value());
  }
  ValueObject gauges;
  for (const auto& [name, g] : gauges_) gauges[name] = g->value();
  ValueObject histograms;
  for (const auto& [name, h] : histograms_) {
    ValueObject entry;
    entry["count"] = static_cast<std::int64_t>(h->count());
    entry["sum"] = h->sum();
    entry["bounds"] = Value::from_doubles(h->bounds());
    ValueArray buckets;
    for (std::uint64_t b : h->bucket_counts()) {
      buckets.emplace_back(static_cast<std::int64_t>(b));
    }
    entry["buckets"] = std::move(buckets);
    histograms[name] = std::move(entry);
  }
  ValueObject out;
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(histograms);
  return out;
}

std::size_t MetricsRegistry::size() const {
  MutexLock lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, c] : counters_) names.push_back(name);
  return names;
}

std::vector<std::string> MetricsRegistry::gauge_names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) names.push_back(name);
  return names;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) names.push_back(name);
  return names;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

}  // namespace osprey::obs
