#include "num/simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace osprey::num::simd {

void lane_to_series(const Vec2d* buf, int lane, int from, int to,
                    double* series) {
  const Vec2d* col = buf + lane / 2;
  const int bit = lane % 2;
  for (int r = from; r < to; ++r) series[r] = col[r * kRowVecs][bit];
}

void series_to_lane(const double* series, int lane, int from, int to,
                    Vec2d* buf) {
  Vec2d* col = buf + lane / 2;
  const int bit = lane % 2;
  for (int r = from; r < to; ++r) col[r * kRowVecs][bit] = series[r];
}

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

namespace {

/// renewal_lanes over the first V vectors of each row.
template <int V>
void renewal_vectors(const Vec2d* rt, const double* w, int wlen, int burnin,
                     int from_day, int days, Vec2d* inc) {
  // The day before the first: its row is an input. Later, each day's
  // newest term is the row just computed, taken from the register
  // rather than reloaded through the store.
  Vec2d last[V] = {};
  if (burnin + from_day > 0) {
    for (int v = 0; v < V; ++v) {
      last[v] = inc[(burnin + from_day - 1) * kRowVecs + v];
    }
  }
  for (int t = from_day; t < days; ++t) {
    const int idx = burnin + t;
    const int smax = std::min(wlen, idx);
    // Identical op order to epi::renewal_pressure in every lane: s
    // ascending, one multiply-add per generation-interval day.
    Vec2d sum[V] = {};
    if (smax > 0) {
      for (int v = 0; v < V; ++v) sum[v] += w[0] * last[v];
    }
    for (int s = 2; s <= smax; ++s) {
      const Vec2d* row = inc + (idx - s) * kRowVecs;
      for (int v = 0; v < V; ++v) sum[v] += w[s - 1] * row[v];
    }
    const Vec2d* r = rt + t * kRowVecs;
    Vec2d* out = inc + idx * kRowVecs;
    for (int v = 0; v < V; ++v) {
      last[v] = r[v] * sum[v];
      out[v] = last[v];
    }
  }
}

/// One day's shedding sum in s-ascending order over one lane, stopping
/// where the window leaves the incidence rows.
double shedding_load(const Vec2d* inc, int lane, const double* shed, int slen,
                     int burnin, int day) {
  double load = 0.0;
  for (int s = 0; s < slen; ++s) {
    const int src = burnin + day - s;
    if (src < 0) break;
    load += shed[s] * lane_get(inc, src, lane);
  }
  return load;
}

}  // namespace

void renewal_lanes(const Vec2d* rt, const double* w, int wlen, int burnin,
                   int from_day, int days, int lanes, Vec2d* inc) {
  static_assert(kRowVecs == 2, "renewal_lanes dispatches on 1 or 2 vectors");
  if (lanes > 2) {
    renewal_vectors<2>(rt, w, wlen, burnin, from_day, days, inc);
  } else {
    renewal_vectors<1>(rt, w, wlen, burnin, from_day, days, inc);
  }
}

void shedding_convolve(const Vec2d* inc, int lane, const double* shed,
                       int slen, int burnin, double scale, double flow,
                       const int* day, std::size_t from, std::size_t n,
                       double* mu) {
  // A day's window is truncated when burnin + day - (slen - 1) < 0.
  const int first_full = slen - 1 - burnin;
  std::size_t i = from;
  // 4-sample blocks: each lane accumulates its own day's shedding sum
  // in the same s-ascending order as the scalar loop, so per-sample
  // results are bitwise identical; only independent days run side by
  // side. Days arrive in any order, so every lane is checked.
  for (; i + 4 <= n; i += 4) {
    const int d0 = day[i];
    const int d1 = day[i + 1];
    const int d2 = day[i + 2];
    const int d3 = day[i + 3];
    if (std::min(std::min(d0, d1), std::min(d2, d3)) < first_full) {
      for (std::size_t l = i; l < i + 4; ++l) {
        mu[l] = scale * shedding_load(inc, lane, shed, slen, burnin, day[l]) /
                flow;
      }
      continue;
    }
    const int r0 = burnin + d0;
    const int r1 = burnin + d1;
    const int r2 = burnin + d2;
    const int r3 = burnin + d3;
    Vec2d lo = {0.0, 0.0};
    Vec2d hi = {0.0, 0.0};
    for (int s = 0; s < slen; ++s) {
      const Vec2d xlo = {lane_get(inc, r0 - s, lane),
                         lane_get(inc, r1 - s, lane)};
      const Vec2d xhi = {lane_get(inc, r2 - s, lane),
                         lane_get(inc, r3 - s, lane)};
      lo += shed[s] * xlo;
      hi += shed[s] * xhi;
    }
    mu[i] = scale * lo[0] / flow;
    mu[i + 1] = scale * lo[1] / flow;
    mu[i + 2] = scale * hi[0] / flow;
    mu[i + 3] = scale * hi[1] / flow;
  }
  for (; i < n; ++i) {
    mu[i] = scale * shedding_load(inc, lane, shed, slen, burnin, day[i]) / flow;
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
  for (; t + 2 <= n; t += 2) {
    Vec2d xv;
    Vec2d ov;
    std::memcpy(&xv, x + t, sizeof xv);
    std::memcpy(&ov, out + t, sizeof ov);
    ov += w * xv;
    std::memcpy(out + t, &ov, sizeof ov);
  }
  for (; t < n; ++t) out[t] += w * x[t];
}

void scale(double s, double* out, std::size_t n) {
  for (std::size_t t = 0; t < n; ++t) out[t] *= s;
}

void sub_square(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t t = 0;
  for (; t + 2 <= n; t += 2) {
    Vec2d av;
    Vec2d bv;
    std::memcpy(&av, a + t, sizeof av);
    std::memcpy(&bv, b + t, sizeof bv);
    Vec2d d = av - bv;
    d *= d;
    std::memcpy(out + t, &d, sizeof d);
  }
  for (; t < n; ++t) {
    const double d = a[t] - b[t];
    out[t] = d * d;
  }
}

}  // namespace osprey::num::simd
