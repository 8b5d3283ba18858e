#include "num/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.hpp"

namespace osprey::num {

double mean(const std::vector<double>& xs) {
  OSPREY_REQUIRE(!xs.empty(), "mean of empty vector");
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double weighted_mean(const std::vector<double>& xs,
                     const std::vector<double>& ws) {
  OSPREY_REQUIRE(xs.size() == ws.size(), "weighted_mean size mismatch");
  OSPREY_REQUIRE(!xs.empty(), "weighted_mean of empty vector");
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    num += ws[i] * xs[i];
    den += ws[i];
  }
  OSPREY_REQUIRE(den > 0.0, "weights sum to zero");
  return num / den;
}

namespace {

/// R type-7 position of q in a sample of n: the lower order statistic's
/// index and the interpolation weight of the one above it.
struct Type7 {
  std::size_t lo;
  double frac;
};

Type7 type7_position(std::size_t n, double q) {
  OSPREY_REQUIRE(n > 0, "quantile of empty vector");
  OSPREY_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
  double h = (static_cast<double>(n) - 1.0) * q;
  std::size_t lo = static_cast<std::size_t>(std::floor(h));
  return {lo, h - static_cast<double>(lo)};
}

/// std::nth_element's contract on [lo, hi): *nth becomes the value a
/// sort would put there, nothing before it is greater and nothing after
/// it is less. Each round splits the range three ways around a
/// median-of-three pivot (below, equal, above) with sweeps that swap
/// unconditionally and advance by the comparison's result, so the
/// partition has no data-dependent branch: on posterior draws, whose
/// order is random, std::nth_element and std::sort spend most of their
/// time on mispredicted compares. The pivot is an element of the range,
/// so the equal block is never empty and every round shrinks the range;
/// after 2·log2(n) rounds std::nth_element finishes what is left.
void select_nth(double* lo, double* nth, double* hi) {
  constexpr std::ptrdiff_t kSmall = 8;  // insertion sort from here down
  int rounds = 2 * std::bit_width(static_cast<std::size_t>(hi - lo));
  for (; hi - lo > kSmall; --rounds) {
    if (rounds == 0) {
      std::nth_element(lo, nth, hi);
      return;
    }
    const double a = lo[0];
    const double b = lo[(hi - lo) / 2];
    const double c = hi[-1];
    const double pivot =
        std::max(std::min(a, b), std::min(std::max(a, b), c));
    double* below_end = lo;
    for (double* p = lo; p != hi; ++p) {
      const double v = *p;
      *p = *below_end;
      *below_end = v;
      below_end += v < pivot;
    }
    if (nth < below_end) {
      hi = below_end;
      continue;
    }
    double* equal_end = below_end;
    for (double* p = below_end; p != hi; ++p) {
      const double v = *p;
      *p = *equal_end;
      *equal_end = v;
      equal_end += !(pivot < v);
    }
    if (nth < equal_end) return;
    lo = equal_end;
  }
  for (double* p = lo + 1; p < hi; ++p) {
    const double v = *p;
    double* q = p;
    for (; q != lo && v < q[-1]; --q) *q = q[-1];
    *q = v;
  }
}

}  // namespace

double quantile(std::vector<double> xs, double q) {
  return quantile_select(xs, q);
}

double quantile_select(std::vector<double>& xs, double q) {
  const auto [lo, frac] = type7_position(xs.size(), q);
  double* const end = xs.data() + xs.size();
  double* const at = xs.data() + lo;
  select_nth(xs.data(), at, end);
  // Everything after `at` is >= it, so the (lo+1)-th order statistic is
  // their minimum. Values that compare equal are the same bits (bar -0.0
  // and +0.0), so these are the two values a sort would put there.
  const double x_lo = *at;
  const double x_hi = at + 1 == end ? x_lo : *std::min_element(at + 1, end);
  return x_lo + frac * (x_hi - x_lo);
}

double quantile_sorted(const std::vector<double>& sorted_xs, double q) {
  const auto [lo, frac] = type7_position(sorted_xs.size(), q);
  std::size_t hi = std::min(lo + 1, sorted_xs.size() - 1);
  return sorted_xs[lo] + frac * (sorted_xs[hi] - sorted_xs[lo]);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

double rmse(const std::vector<double>& a, const std::vector<double>& b) {
  OSPREY_REQUIRE(a.size() == b.size() && !a.empty(), "rmse size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(a.size()));
}

double mae(const std::vector<double>& a, const std::vector<double>& b) {
  OSPREY_REQUIRE(a.size() == b.size() && !a.empty(), "mae size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::fabs(a[i] - b[i]);
  return s / static_cast<double>(a.size());
}

double correlation(const std::vector<double>& a,
                   const std::vector<double>& b) {
  OSPREY_REQUIRE(a.size() == b.size() && !a.empty(),
                 "correlation size mismatch");
  double ma = mean(a);
  double mb = mean(b);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  if (saa == 0.0 || sbb == 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

Summary summarize(const std::vector<double>& xs) {
  OSPREY_REQUIRE(!xs.empty(), "summarize of empty vector");
  Summary s;
  s.n = xs.size();
  s.mean = mean(xs);
  s.sd = stddev(xs);
  // One sort serves min/max and all three quantiles.
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.q025 = quantile_sorted(sorted, 0.025);
  s.median = quantile_sorted(sorted, 0.5);
  s.q975 = quantile_sorted(sorted, 0.975);
  return s;
}

void RunningStat::add(double x) {
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

}  // namespace osprey::num
