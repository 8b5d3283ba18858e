#pragma once

/// \file simd.hpp
/// Structure-of-arrays micro-kernels for the hot likelihood loops of the
/// R(t) estimators (and any other per-day series math). Two design
/// rules make these safe to share between the bit-identical MCMC paths
/// and throughput-oriented fan-outs:
///
///  1. **Exact per-element order.** Every kernel performs, for each
///     output element, the same scalar operation sequence as the naive
///     loop it replaces. Vectorization happens ACROSS independent
///     output elements (the lanes of a vector), never by reassociating a
///     single element's accumulation. A kernel result is therefore
///     bitwise equal to the reference loop, so the Metropolis accept
///     decisions built on top of it replay identically.
///  2. **No hidden state.** Kernels read and write caller-owned SoA
///     buffers with explicit [from, to) ranges, which is what lets the
///     incremental likelihood workspace recompute only the window or
///     suffix a proposal can change.
///
/// The vector type is a GCC/Clang vector extension of two doubles, one
/// SSE2 register on the default x86-64 target: lane arithmetic is
/// ordinary per-lane IEEE double arithmetic, so the bit-identity
/// contract holds whatever the compiler vectorizes. A wider type is not
/// used: without AVX a 32-byte vector is assembled lane by lane through
/// a stack slot on every step.

#include <cstddef>

namespace osprey::num::simd {

/// 2 doubles, element-wise IEEE ops (one SSE2 register).
typedef double Vec2d __attribute__((vector_size(2 * sizeof(double))));

/// A lane buffer holds several series side by side, one row per day:
/// row r's kRowLanes values sit in kRowVecs consecutive Vec2d, so a
/// buffer of Vec2d keeps every vector load aligned. Lane l of row r is
/// buf[r * kRowVecs + l / 2][l % 2].
inline constexpr int kRowLanes = 4;
inline constexpr int kRowVecs = kRowLanes / 2;

inline double lane_get(const Vec2d* buf, int row, int lane) {
  return buf[row * kRowVecs + lane / 2][lane % 2];
}

inline void lane_set(Vec2d* buf, int row, int lane, double x) {
  buf[row * kRowVecs + lane / 2][lane % 2] = x;
}

/// series[r] = lane `lane` of row r of buf, for rows r in [from, to).
void lane_to_series(const Vec2d* buf, int lane, int from, int to,
                    double* series);

/// Lane `lane` of row r of buf = series[r], for rows r in [from, to).
void series_to_lane(const double* series, int lane, int from, int to,
                    Vec2d* buf);

/// Piecewise-linear interpolation of log-knots onto daily R values,
/// rt[t] = exp(lerp(log_knots, t)), for t in [from_day, to_day) with
/// to_day <= days. Each day is a function of its two bracketing knots
/// only, so a window reproduces exactly the values a whole-horizon call
/// writes there.
///
/// Knot j sits at day j*spacing, except that when spacing does not
/// divide days-1 the FINAL knot sits at day days-1, so the last partial
/// segment interpolates over its true (shorter) length and reaches the
/// final knot exactly at the horizon boundary. (The pre-fix behaviour
/// divided by the full spacing there, under-weighting the final knot.)
/// `days` places that final knot whatever window is written.
void interp_log_knots_exp(const double* log_knots, int n_knots, int spacing,
                          int days, int from_day, int to_day, double* rt);

/// Renewal-equation incidence recursions, one per lane of the lane
/// buffers `rt` (row t: day t's R) and `inc` (row burnin + t: day t's
/// incidence). For each lane l in [0, lanes) and t in [from_day, days):
///   inc[burnin+t][l] = rt[t][l] * sum_{s=1..wlen} w[s-1] * inc[burnin+t-s][l]
/// with the sum in s-ascending order, stopping at row 0, exactly as
/// epi::renewal_pressure. Rows below burnin + from_day must already hold
/// valid values; they are read, never written. Each day feeds the next,
/// so a lane is one sequential chain; the lanes of a vector run it
/// together and each keeps its own sum, so every value is bitwise the
/// scalar recursion's. Lanes advance in whole Vec2d: with an odd count
/// the last vector's other lane runs too, on whatever its rows hold,
/// and must hold nothing live. Later vectors are untouched.
void renewal_lanes(const Vec2d* rt, const double* w, int wlen, int burnin,
                   int from_day, int days, int lanes, Vec2d* inc);

/// Shedding-load convolution normalized by plant flow, at sample days,
/// over lane `lane` of the lane buffer `inc` (row burnin + t: day t):
///   mu[i] = scale * (sum_{s>=0} shed[s] * inc[burnin + day[i] - s]) / flow
/// for samples i in [from, n), truncating the sum where
/// burnin + day[i] - s < 0. Days may come in any order. Batched 4
/// samples per block, gathered from their own days into two Vec2d:
/// each lane accumulates its day's sum in the same s-ascending order as
/// the scalar loop, so each mu[i] is bitwise equal to the reference
/// per-day value; a block with any truncated lane runs scalar.
void shedding_convolve(const Vec2d* inc, int lane, const double* shed,
                       int slen, int burnin, double scale, double flow,
                       const int* day, std::size_t from, std::size_t n,
                       double* mu);

/// Lognormal observation terms for samples [from, n), from the
/// per-sample expected concentrations of shedding_convolve:
///   log_mu[i]  = log(mu[i])
///   contrib[i] = 0.5 * z*z + log_sigma,  z = (log_c[i] - log_mu[i]) / sigma
/// Returns false (stopping at the offending sample, matching the
/// reference early-return) when mu[i] is not > 0; `log_c` holds
/// precomputed log-concentrations and `positive_c[i]` whether the raw
/// concentration was > 0.
bool lognormal_terms(const double* mu, const double* log_c,
                     const unsigned char* positive_c, std::size_t from,
                     std::size_t n, double sigma, double log_sigma,
                     double* log_mu, double* contrib);

/// out[t] += w * x[t] for t in [0, n): the ensemble-aggregation inner
/// loop. Element-wise (no reassociation), so accumulating members in a
/// fixed order stays bit-identical to the scalar reference.
void axpy(double w, const double* x, double* out, std::size_t n);

/// out[t] *= s for t in [0, n).
void scale(double s, double* out, std::size_t n);

/// out[i] = (a[i] - b[i])^2 for i in [0, n): the squared-difference
/// terms of the Jansen Sobol' estimators. Element-wise — callers keep
/// their own accumulation order over out[], so batched GSA replicate
/// fan-outs stay bitwise identical to the scalar path.
void sub_square(const double* a, const double* b, double* out, std::size_t n);

}  // namespace osprey::num::simd
