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
///     output elements (4 lanes of `t`), never by reassociating a
///     single element's accumulation. A kernel result is therefore
///     bitwise equal to the reference loop, so the Metropolis accept
///     decisions built on top of it replay identically.
///  2. **No hidden state.** Kernels read and write caller-owned SoA
///     buffers with explicit [from, to) ranges, which is what lets the
///     incremental likelihood workspace recompute only the window or
///     suffix a proposal can change.
///
/// The 4-wide type uses GCC/Clang vector extensions when available
/// (SSE2/AVX codegen, per-lane IEEE semantics) and falls back to a
/// plain array otherwise; either way lane arithmetic is ordinary double
/// arithmetic, so the bit-identity contract holds on every compiler.

#include <cstddef>

namespace osprey::num::simd {

/// Lanes processed per block in the batched kernels.
inline constexpr int kLanes = 4;

#if defined(__GNUC__) || defined(__clang__)
#define OSPREY_SIMD_VEC_EXT 1
/// 4 doubles, element-wise IEEE ops (compiled to SSE2/AVX pairs).
typedef double Vec4d __attribute__((vector_size(4 * sizeof(double))));
#else
#define OSPREY_SIMD_VEC_EXT 0
struct Vec4d {
  double lane[4];
};
#endif

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

/// Renewal-equation incidence recursion:
///   inc[burnin + t] = rt[t] * sum_{s=1..wlen} w[s-1] * inc[burnin+t-s]
/// for t in [from_day, days). Entries of inc below burnin + from_day
/// must already hold valid values (the i0 burn-in prefix and any cached
/// prefix); they are read, never written. Inherently sequential (each
/// day feeds the next), so this kernel is scalar by construction.
void renewal_incidence(const double* rt, const double* w, int wlen,
                       int burnin, int from_day, int days, double* inc);

/// Three independent renewal recursions run side by side over
/// [from_day, days): for each x in 0..2, inc[x] follows rt[x] exactly
/// as renewal_incidence(rt[x], w, wlen, burnin, from_day, days, inc[x])
/// would. Each recursion keeps its own s-ascending sum, so every value
/// is bitwise equal to the lone call; interleaving only lets the three
/// sums' dependency chains overlap in the pipeline.
void renewal_incidence3(const double* const rt[3], const double* w, int wlen,
                        int burnin, int from_day, int days,
                        double* const inc[3]);

/// Shedding-load convolution normalized by plant flow, at sample days:
///   mu[i] = scale * (sum_{s>=0} shed[s] * inc[burnin + day[i] - s]) / flow
/// for samples i in [from, n), truncating the sum where
/// burnin + day[i] - s < 0. Days may come in any order. Batched 4
/// samples per block, gathered from their own days: each lane
/// accumulates its day's sum in the same s-ascending order as the
/// scalar loop, so each mu[i] is bitwise equal to the reference
/// per-day value; a block with any truncated lane runs scalar.
void shedding_convolve(const double* inc, const double* shed, int slen,
                       int burnin, double scale, double flow, const int* day,
                       std::size_t from, std::size_t n, double* mu);

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
