#include "serve/zipf.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace osprey::serve {

using osprey::util::mix64;
using osprey::util::unit_double;

ZipfTrace::ZipfTrace(std::size_t num_items, double exponent,
                     std::uint64_t seed)
    : seed_(seed) {
  OSPREY_REQUIRE(num_items >= 1, "zipf trace needs at least one item");
  OSPREY_REQUIRE(exponent >= 0.0, "zipf exponent must be non-negative");
  cdf_.resize(num_items);
  double total = 0.0;
  for (std::size_t k = 0; k < num_items; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding
  guide_.resize(4 * num_items);
  const double buckets = static_cast<double>(guide_.size());
  std::size_t k = 0;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    const double edge = static_cast<double>(b) / buckets;
    while (cdf_[k] <= edge) ++k;  // stops at back() == 1.0 > edge
    guide_[b] = k;
  }
}

std::size_t ZipfTrace::item(std::uint64_t request_index) const {
  return rank(unit_double(mix64(seed_ ^ mix64(request_index))));
}

std::size_t ZipfTrace::rank(double u) const {
  OSPREY_REQUIRE(u >= 0.0 && u < 1.0, "zipf rank needs u in [0, 1)");
  const std::size_t b = std::min(
      static_cast<std::size_t>(u * static_cast<double>(guide_.size())),
      guide_.size() - 1);
  std::size_t k = guide_[b];
  // u * size can round up across a bucket edge, past ranks above u.
  while (k > 0 && cdf_[k - 1] > u) --k;
  while (cdf_[k] <= u) ++k;  // stops at back() == 1.0 > u
  return k;
}

}  // namespace osprey::serve
