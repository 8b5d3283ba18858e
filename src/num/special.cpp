#include "num/special.hpp"

#include <cmath>

#include "util/error.hpp"

namespace osprey::num {

double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

double gamma_p(double a, double x) {
  OSPREY_REQUIRE(a > 0.0, "gamma_p needs a > 0");
  if (x <= 0.0) return 0.0;
  if (x < a + 1.0) {
    // Series expansion around 0.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int n = 0; n < 500; ++n) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 1e-14) break;
    }
    return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
  }
  // Lentz continued fraction for Q(a, x); P = 1 - Q.
  double b = x + 1.0 - a;
  double c = 1e300;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = b + an / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-14) break;
  }
  double q = std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
  return 1.0 - q;
}

double gamma_quantile(double q, double shape, double scale) {
  OSPREY_REQUIRE(q > 0.0 && q < 1.0, "quantile q must be in (0,1)");
  OSPREY_REQUIRE(shape > 0.0 && scale > 0.0, "gamma parameters positive");
  // Bracket: start at the Wilson–Hilferty approximation and expand.
  double z = normal_quantile(q);
  double wh = shape * std::pow(1.0 - 1.0 / (9.0 * shape) +
                                   z / (3.0 * std::sqrt(shape)),
                               3.0);
  double hi = std::max(wh, 1e-8) * 2.0 + 1.0;
  double lo = 0.0;
  while (gamma_p(shape, hi) < q && hi < 1e12) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    double mid = 0.5 * (lo + hi);
    if (gamma_p(shape, mid) < q) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + hi)) break;
  }
  return 0.5 * (lo + hi) * scale;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_quantile(double q) {
  OSPREY_REQUIRE(q > 0.0 && q < 1.0, "quantile q must be in (0,1)");
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double x;
  if (q < p_low) {
    double u = std::sqrt(-2.0 * std::log(q));
    x = (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) /
        ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0);
  } else if (q <= 1.0 - p_low) {
    double u = q - 0.5;
    double r = u * u;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        u /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    double u = std::sqrt(-2.0 * std::log(1.0 - q));
    x = -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u +
          c[5]) /
        ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0);
  }
  return x;
}

}  // namespace osprey::num
