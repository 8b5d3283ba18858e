#pragma once

/// \file zipf.hpp
/// Counter-based Zipf workload trace for the serving tier. Dashboard
/// traffic is heavily skewed — a handful of headline QoIs absorb most
/// reads — and Zipf(s) is the standard model for that skew. `item(i)`
/// is a pure function of (seed, i): request i of a trace maps to the
/// same item on every run and platform, so flood benches and replay
/// tests share bit-identical request streams without carrying RNG
/// state through the event loop.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace osprey::serve {

class ZipfTrace {
 public:
  /// Ranks 0..num_items-1 with P(rank k) proportional to
  /// 1/(k+1)^exponent. `num_items` >= 1, `exponent` >= 0 (0 = uniform).
  ZipfTrace(std::size_t num_items, double exponent, std::uint64_t seed);

  std::size_t num_items() const { return cdf_.size(); }

  /// Item rank drawn for request `request_index` (counter-based, pure:
  /// no internal state advances): rank() of the request's uniform draw.
  std::size_t item(std::uint64_t request_index) const;

  /// The rank whose CDF interval holds `u` in [0, 1): the first k with
  /// cdf[k] > u, the rank std::upper_bound over the CDF finds.
  std::size_t rank(double u) const;

 private:
  std::uint64_t seed_;
  std::vector<double> cdf_;  // cumulative probabilities; back() == 1.0
  /// Guide table over [0, 1) in 4 * num_items equal buckets: guide_[b]
  /// is the rank upper_bound(cdf_, b / guide_.size()) picks, where the
  /// scan for a draw in bucket b starts (about one step on average).
  std::vector<std::size_t> guide_;
};

}  // namespace osprey::serve
