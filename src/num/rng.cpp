#include "num/rng.hpp"

#include <cmath>

#include "num/special.hpp"
#include "util/error.hpp"

namespace osprey::num {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

RngStream::RngStream(std::uint64_t seed, std::uint64_t stream)
    : seed_(seed), stream_(stream) {
  // Mix seed and stream id through splitmix64 to fill the state; a zero
  // state is impossible because splitmix64 output is never all-zero four
  // times in a row for distinct counters.
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  for (auto& si : s_) si = splitmix64(x);
}

RngStream RngStream::substream(std::uint64_t key) const {
  // Children are identified by hashing (seed, stream, key); draws made on
  // the parent do not affect the child.
  std::uint64_t x = seed_ ^ rotl(stream_ + 0x632be59bd9b4e019ULL, 17);
  std::uint64_t mixed = splitmix64(x) ^ rotl(key + 1, 31);
  return RngStream(mixed, key);
}

std::uint64_t RngStream::next_u64() {
  // xoshiro256**
  std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double RngStream::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double RngStream::uniform(double lo, double hi) {
  OSPREY_REQUIRE(hi >= lo, "uniform(lo, hi) requires hi >= lo");
  return lo + (hi - lo) * uniform();
}

std::uint64_t RngStream::uniform_int(std::uint64_t n) {
  OSPREY_REQUIRE(n > 0, "uniform_int(0)");
  // Rejection to remove modulo bias.
  std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % n;
}

double RngStream::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double m = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * m;
  has_spare_ = true;
  return u * m;
}

double RngStream::normal(double mean, double sd) { return mean + sd * normal(); }

double RngStream::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double RngStream::exponential(double rate) {
  OSPREY_REQUIRE(rate > 0, "exponential rate must be positive");
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double RngStream::gamma(double shape, double scale) {
  OSPREY_REQUIRE(shape > 0 && scale > 0, "gamma parameters must be positive");
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang trick).
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  double d = shape - 1.0 / 3.0;
  double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

double RngStream::beta(double a, double b) {
  double x = gamma(a, 1.0);
  double y = gamma(b, 1.0);
  return x / (x + y);
}

std::int64_t RngStream::poisson(double mean) {
  OSPREY_REQUIRE(mean >= 0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth multiplication method.
    double limit = std::exp(-mean);
    double prod = uniform();
    std::int64_t k = 0;
    while (prod > limit) {
      prod *= uniform();
      ++k;
    }
    return k;
  }
  return poisson_ptrs(mean);
}

std::int64_t RngStream::poisson_ptrs(double mean) {
  // Hörmann's PTRS transformed-rejection sampler (exact for mean >= 10).
  double b = 0.931 + 2.53 * std::sqrt(mean);
  double a = -0.059 + 0.02483 * b;
  double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  double v_r = 0.9277 - 3.6224 / (b - 2.0);
  while (true) {
    double u = uniform() - 0.5;
    double v = uniform();
    double us = 0.5 - std::fabs(u);
    double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::int64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * std::log(mean) - mean - log_gamma(k + 1.0)) {
      return static_cast<std::int64_t>(k);
    }
  }
}

std::int64_t RngStream::binomial(std::int64_t n, double p) {
  OSPREY_REQUIRE(n >= 0, "binomial n must be non-negative");
  OSPREY_REQUIRE(p >= 0.0 && p <= 1.0, "binomial p must be in [0,1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - binomial(n, 1.0 - p);
  double np = static_cast<double>(n) * p;
  if (n <= 64) {
    std::int64_t k = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      if (uniform() < p) ++k;
    }
    return k;
  }
  if (np < 30.0) {
    // CDF inversion via the pmf recurrence (stable for small np).
    double q = 1.0 - p;
    double r = p / q;
    double pmf = std::exp(static_cast<double>(n) * std::log(q));
    double u = uniform();
    std::int64_t k = 0;
    double cdf = pmf;
    while (u > cdf && k < n) {
      ++k;
      pmf *= r * static_cast<double>(n - k + 1) / static_cast<double>(k);
      cdf += pmf;
    }
    return k;
  }
  return binomial_btrs(n, p);
}

std::int64_t RngStream::binomial_btrs(std::int64_t n, double p) {
  // Hörmann's BTRS transformed-rejection sampler; exact, O(1) expected.
  double nd = static_cast<double>(n);
  double q = 1.0 - p;
  double spq = std::sqrt(nd * p * q);
  double b = 1.15 + 2.53 * spq;
  double a = -0.0873 + 0.0248 * b + 0.01 * p;
  double c = nd * p + 0.5;
  double v_r = 0.92 - 4.2 / b;
  double alpha = (2.83 + 5.1 / b) * spq;
  double lpq = std::log(p / q);
  double m = std::floor((nd + 1.0) * p);
  double h = log_gamma(m + 1.0) + log_gamma(nd - m + 1.0);
  while (true) {
    double u = uniform() - 0.5;
    double v = uniform();
    double us = 0.5 - std::fabs(u);
    double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::int64_t>(kd);
    v = std::log(v * alpha / (a / (us * us) + b));
    if (v <= h - log_gamma(kd + 1.0) - log_gamma(nd - kd + 1.0) +
                 (kd - m) * lpq) {
      return static_cast<std::int64_t>(kd);
    }
  }
}

std::vector<std::size_t> RngStream::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(uniform_int(i));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace osprey::num
