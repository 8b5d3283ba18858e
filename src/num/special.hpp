#pragma once

/// \file special.hpp
/// Special functions needed by the Bayesian R(t) machinery: regularized
/// incomplete gamma and gamma/normal quantiles.

namespace osprey::num {

/// ln|Γ(x)|, the value std::lgamma returns, computed without writing
/// the process-global `signgam` that std::lgamma sets, so concurrent
/// callers (R(t) refits on the thread pool) do not race.
double log_gamma(double x);

/// Regularized lower incomplete gamma P(a, x) (series + continued
/// fraction), accurate to ~1e-12.
double gamma_p(double a, double x);

/// Quantile of Gamma(shape, scale): smallest x with P(shape, x/scale) >= q.
/// Bisection on gamma_p; q in (0, 1).
double gamma_quantile(double q, double shape, double scale);

/// Standard normal CDF.
double normal_cdf(double x);

/// Standard normal quantile (Acklam's rational approximation, |err|<1e-9).
double normal_quantile(double q);

}  // namespace osprey::num
