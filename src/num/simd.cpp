#include "num/simd.hpp"

#include <algorithm>
#include <cmath>

namespace osprey::num::simd {

void interp_log_knots_exp(const double* log_knots, int n_knots, int spacing,
                          int days, int from_day, int to_day, double* rt) {
  // Whether the nominal final knot day (n_knots-1)*spacing overshoots
  // the horizon; if so the final knot is pinned to day days-1 and the
  // last segment interpolates over its true length.
  const bool partial = (n_knots - 1) * spacing > days - 1;
  const int last_seg_start = (n_knots - 2) * spacing;
  const int last_denom = partial ? (days - 1 - last_seg_start) : spacing;
  for (int t = from_day; t < to_day; ++t) {
    int k = t / spacing;
    int k1 = std::min(k + 1, n_knots - 1);
    int denom = (partial && k == n_knots - 2) ? last_denom : spacing;
    double frac = static_cast<double>(t - k * spacing) / denom;
    double log_rt = log_knots[static_cast<std::size_t>(k)] * (1.0 - frac) +
                    log_knots[static_cast<std::size_t>(k1)] * frac;
    rt[t] = std::exp(log_rt);
  }
}

void renewal_incidence(const double* rt, const double* w, int wlen,
                       int burnin, int from_day, int days, double* inc) {
  for (int t = from_day; t < days; ++t) {
    const int idx = burnin + t;
    // Identical op order to epi::renewal_pressure: s ascending, one
    // multiply-add per generation-interval day.
    double sum = 0.0;
    for (int s = 1; s <= wlen; ++s) {
      if (s > idx) break;
      sum += w[s - 1] * inc[idx - s];
    }
    inc[idx] = rt[t] * sum;
  }
}

void renewal_incidence3(const double* const rt[3], const double* w, int wlen,
                        int burnin, int from_day, int days,
                        double* const inc[3]) {
  double* const a = inc[0];
  double* const b = inc[1];
  double* const c = inc[2];
  for (int t = from_day; t < days; ++t) {
    const int idx = burnin + t;
    const int smax = std::min(wlen, idx);
    double sa = 0.0;
    double sb = 0.0;
    double sc = 0.0;
    for (int s = 1; s <= smax; ++s) {
      sa += w[s - 1] * a[idx - s];
      sb += w[s - 1] * b[idx - s];
      sc += w[s - 1] * c[idx - s];
    }
    a[idx] = rt[0][t] * sa;
    b[idx] = rt[1][t] * sb;
    c[idx] = rt[2][t] * sc;
  }
}

namespace {

/// One day's shedding sum in s-ascending order, stopping where the
/// window leaves the incidence array.
double shedding_load(const double* inc, const double* shed, int slen,
                     int burnin, int day) {
  double load = 0.0;
  for (int s = 0; s < slen; ++s) {
    const int src = burnin + day - s;
    if (src < 0) break;
    load += shed[s] * inc[src];
  }
  return load;
}

}  // namespace

void shedding_convolve(const double* inc, const double* shed, int slen,
                       int burnin, double scale, double flow, const int* day,
                       std::size_t from, std::size_t n, double* mu) {
  // A day's window is truncated when burnin + day - (slen - 1) < 0.
  const int first_full = slen - 1 - burnin;
  std::size_t i = from;
  // 4-sample blocks: each lane accumulates its own day's shedding sum
  // in the same s-ascending order as the scalar loop, so per-sample
  // results are bitwise identical; only independent days run side by
  // side. Days arrive in any order, so every lane is checked.
  for (; i + kLanes <= n; i += kLanes) {
    const int d0 = day[i];
    const int d1 = day[i + 1];
    const int d2 = day[i + 2];
    const int d3 = day[i + 3];
    if (std::min(std::min(d0, d1), std::min(d2, d3)) < first_full) {
      for (std::size_t l = i; l < i + kLanes; ++l) {
        mu[l] = scale * shedding_load(inc, shed, slen, burnin, day[l]) / flow;
      }
      continue;
    }
    const double* p0 = inc + burnin + d0;
    const double* p1 = inc + burnin + d1;
    const double* p2 = inc + burnin + d2;
    const double* p3 = inc + burnin + d3;
#if OSPREY_SIMD_VEC_EXT
    Vec4d load = {0.0, 0.0, 0.0, 0.0};
    for (int s = 0; s < slen; ++s) {
      Vec4d x = {p0[-s], p1[-s], p2[-s], p3[-s]};
      load += shed[s] * x;
    }
    for (int l = 0; l < kLanes; ++l) {
      mu[i + static_cast<std::size_t>(l)] = scale * load[l] / flow;
    }
#else
    double load[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (int s = 0; s < slen; ++s) {
      load[0] += shed[s] * p0[-s];
      load[1] += shed[s] * p1[-s];
      load[2] += shed[s] * p2[-s];
      load[3] += shed[s] * p3[-s];
    }
    for (int l = 0; l < kLanes; ++l) {
      mu[i + static_cast<std::size_t>(l)] = scale * load[l] / flow;
    }
#endif
  }
  for (; i < n; ++i) {
    mu[i] = scale * shedding_load(inc, shed, slen, burnin, day[i]) / flow;
  }
}

bool lognormal_terms(const double* mu, const double* log_c,
                     const unsigned char* positive_c, std::size_t from,
                     std::size_t n, double sigma, double log_sigma,
                     double* log_mu, double* contrib) {
  for (std::size_t i = from; i < n; ++i) {
    const double m = mu[i];
    if (!(m > 0.0) || positive_c[i] == 0) return false;
    const double lm = std::log(m);
    const double z = (log_c[i] - lm) / sigma;
    log_mu[i] = lm;
    contrib[i] = 0.5 * z * z + log_sigma;
  }
  return true;
}

void axpy(double w, const double* x, double* out, std::size_t n) {
  std::size_t t = 0;
#if OSPREY_SIMD_VEC_EXT
  for (; t + kLanes <= n; t += kLanes) {
    Vec4d xv = {x[t], x[t + 1], x[t + 2], x[t + 3]};
    Vec4d ov = {out[t], out[t + 1], out[t + 2], out[t + 3]};
    ov += w * xv;
    out[t] = ov[0];
    out[t + 1] = ov[1];
    out[t + 2] = ov[2];
    out[t + 3] = ov[3];
  }
#endif
  for (; t < n; ++t) out[t] += w * x[t];
}

void scale(double s, double* out, std::size_t n) {
  for (std::size_t t = 0; t < n; ++t) out[t] *= s;
}

void sub_square(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t t = 0;
#if OSPREY_SIMD_VEC_EXT
  for (; t + kLanes <= n; t += kLanes) {
    Vec4d av = {a[t], a[t + 1], a[t + 2], a[t + 3]};
    Vec4d bv = {b[t], b[t + 1], b[t + 2], b[t + 3]};
    Vec4d d = av - bv;
    d *= d;
    out[t] = d[0];
    out[t + 1] = d[1];
    out[t + 2] = d[2];
    out[t + 3] = d[3];
  }
#endif
  for (; t < n; ++t) {
    const double d = a[t] - b[t];
    out[t] = d * d;
  }
}

}  // namespace osprey::num::simd
