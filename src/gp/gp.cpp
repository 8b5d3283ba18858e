#include "gp/gp.hpp"

#include <algorithm>
#include <cmath>

#include "num/optim.hpp"
#include "num/stats.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace osprey::gp {

using osprey::num::Cholesky;
using osprey::num::Vector;

GaussianProcess::GaussianProcess(GpConfig config)
    : config_(std::move(config)) {}

void GaussianProcess::fit(const Matrix& x, const Vector& y) {
  update_data(x, y);
  reoptimize();
}

void GaussianProcess::restandardize() {
  y_mean_ = osprey::num::mean(y_);
  y_sd_ = osprey::num::stddev(y_);
  if (y_sd_ < 1e-12) y_sd_ = 1.0;  // constant responses: degenerate scale
  y_std_.resize(y_.size());
  for (std::size_t i = 0; i < y_.size(); ++i) {
    y_std_[i] = (y_[i] - y_mean_) / y_sd_;
  }
}

void GaussianProcess::update_data(const Matrix& x, const Vector& y) {
  OSPREY_REQUIRE(x.rows() == y.size(), "X/y size mismatch");
  OSPREY_REQUIRE(x.rows() >= 2, "GP needs at least 2 points");
  x_ = x;
  y_ = y;
  restandardize();
  if (kernel_.lengthscales.size() != x_.cols()) {
    kernel_.lengthscales.assign(x_.cols(), 0.3);
    kernel_.variance = 1.0;
    nugget_ = 1e-4;
  }
  condition();
}

void GaussianProcess::add_point(const Vector& x, double y) {
  OSPREY_REQUIRE(fitted(), "add_point before fit");
  OSPREY_REQUIRE(x.size() == x_.cols(), "point dimension mismatch");
  const std::size_t n = x_.rows();
  Matrix x2(n + 1, x_.cols());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < x_.cols(); ++j) x2(i, j) = x_(i, j);
  }
  for (std::size_t j = 0; j < x_.cols(); ++j) x2(n, j) = x[j];
  x_ = std::move(x2);
  y_.push_back(y);
  restandardize();

  // Rank-1 path: the kernel matrix of the first n points is unchanged
  // (hyperparameters are fixed here), so only the new row/column enters
  // the factor — O(n^2) instead of the O(n^3) re-factorization. The
  // response standardization does shift with the new y, but that only
  // affects alpha, which is an O(n^2) pair of triangular solves.
  Vector k(n);
  for (std::size_t i = 0; i < n; ++i) k[i] = kernel_(x_.row(i), x);
  // Diagonal must match condition() exactly: nugget + the base jitter
  // plus whatever extra jitter the last factorization escalated to.
  double c = kernel_.variance + nugget_ + config_.jitter + cond_jitter_;
  try {
    chol_->extend(k, c);
  } catch (const osprey::util::NumericalError&) {
    // Near-duplicate point made the bordered matrix numerically
    // indefinite: fall back to the jitter-growing full factorization.
    condition();
    return;
  }
  refresh_alpha_and_lml();
}

double GaussianProcess::nlml(const Vector& log_params) const {
  // log_params = [log l_1..log l_d, log variance, log nugget].
  const std::size_t d = x_.cols();
  ArdSqExpKernel kernel;
  kernel.lengthscales.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    double l = std::exp(log_params[j]);
    if (l < config_.min_lengthscale || l > config_.max_lengthscale) {
      return 1e12;
    }
    kernel.lengthscales[j] = l;
  }
  kernel.variance = std::exp(log_params[d]);
  if (kernel.variance < 1e-6 || kernel.variance > 1e4) return 1e12;
  double nugget = std::exp(log_params[d + 1]);
  if (nugget < config_.min_nugget || nugget > config_.max_nugget) return 1e12;

  Matrix k = kernel.covariance(x_);
  for (std::size_t i = 0; i < k.rows(); ++i) {
    k(i, i) += nugget + config_.jitter;
  }
  try {
    Cholesky chol(k);
    Vector alpha = chol.solve(y_std_);
    double fit_term = 0.5 * osprey::num::dot(y_std_, alpha);
    double det_term = 0.5 * chol.log_det();
    double n = static_cast<double>(x_.rows());
    return fit_term + det_term + 0.5 * n * std::log(2.0 * M_PI);
  } catch (const osprey::util::NumericalError&) {
    return 1e12;
  }
}

void GaussianProcess::reoptimize() {
  OSPREY_REQUIRE(x_.rows() >= 2, "reoptimize before data");
  const std::size_t d = x_.cols();
  Vector x0(d + 2);
  for (std::size_t j = 0; j < d; ++j) {
    x0[j] = std::log(std::clamp(kernel_.lengthscales[j],
                                config_.min_lengthscale,
                                config_.max_lengthscale));
  }
  x0[d] = std::log(std::clamp(kernel_.variance, 1e-6, 1e4));
  x0[d + 1] = std::log(std::clamp(nugget_, config_.min_nugget,
                                  config_.max_nugget));

  osprey::num::NelderMeadOptions options;
  options.max_iterations = config_.mle_max_iterations;
  options.initial_step = 0.7;
  osprey::num::RngStream rng(config_.seed);
  // nlml() only reads const state, so the multistarts are safe to fan
  // out; the result is bit-identical to the serial path.
  osprey::util::ThreadPool* pool =
      config_.mle_restarts > 0 ? &osprey::util::global_pool() : nullptr;
  osprey::num::OptimResult best = osprey::num::multistart_minimize(
      [this](const Vector& p) { return nlml(p); }, x0, config_.mle_restarts,
      1.5, rng, options, pool);

  for (std::size_t j = 0; j < d; ++j) {
    kernel_.lengthscales[j] = std::exp(best.x[j]);
  }
  kernel_.variance = std::exp(best.x[d]);
  nugget_ = std::exp(best.x[d + 1]);
  condition();
}

void GaussianProcess::condition() {
  Matrix k = kernel_.covariance(x_);
  for (std::size_t i = 0; i < k.rows(); ++i) {
    k(i, i) += nugget_ + config_.jitter;
  }
  chol_ = osprey::num::cholesky_with_jitter(k, config_.jitter, 10,
                                            &cond_jitter_);
  refresh_alpha_and_lml();
}

void GaussianProcess::refresh_alpha_and_lml() {
  alpha_ = chol_->solve(y_std_);
  double fit_term = 0.5 * osprey::num::dot(y_std_, alpha_);
  double det_term = 0.5 * chol_->log_det();
  double n = static_cast<double>(x_.rows());
  lml_ = -(fit_term + det_term + 0.5 * n * std::log(2.0 * M_PI));
}

GpPrediction GaussianProcess::predict(const Vector& xstar) const {
  OSPREY_REQUIRE(fitted(), "predict before fit");
  Vector k = kernel_.cross(x_, xstar);
  GpPrediction pred;
  double m = osprey::num::dot(k, alpha_);
  pred.mean = y_mean_ + y_sd_ * m;
  Vector v = chol_->solve_lower(k);
  double var = kernel_.variance - osprey::num::dot(v, v);
  var = std::max(var, 0.0);
  pred.variance = var * y_sd_ * y_sd_;
  return pred;
}

Vector GaussianProcess::predict_mean(const Matrix& xstar) const {
  OSPREY_REQUIRE(fitted(), "predict before fit");
  OSPREY_REQUIRE(xstar.cols() == x_.cols(), "dimension mismatch");
  Vector out(xstar.rows());
  const std::size_t d = x_.cols();
  auto predict_row = [&](std::size_t p) {
    double m = 0.0;
    for (std::size_t i = 0; i < x_.rows(); ++i) {
      double q = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        double diff = (x_(i, j) - xstar(p, j)) / kernel_.lengthscales[j];
        q += diff * diff;
      }
      m += alpha_[i] * kernel_.variance * std::exp(-0.5 * q);
    }
    out[p] = y_mean_ + y_sd_ * m;
  };
  // Rows are independent and each writes its own slot, so the fan-out
  // is bit-identical to the serial loop. Only batches with real work
  // (rows x training points) go to the pool.
  if (xstar.rows() >= 32 && xstar.rows() * x_.rows() >= 16384) {
    osprey::util::global_pool().parallel_for(xstar.rows(), predict_row);
  } else {
    for (std::size_t p = 0; p < xstar.rows(); ++p) predict_row(p);
  }
  return out;
}

double GaussianProcess::log_marginal_likelihood() const {
  OSPREY_REQUIRE(fitted(), "log_marginal_likelihood before fit");
  return lml_;
}

GaussianProcess::LooDiagnostics GaussianProcess::leave_one_out() const {
  OSPREY_REQUIRE(fitted(), "leave_one_out before fit");
  const std::size_t n = x_.rows();
  // Diagonal of K^{-1} straight from the factor's column solves —
  // ~n^3/6 flops and O(n) memory, versus the ~n^3 flops plus two n x n
  // temporaries of the old solve(Matrix::identity(n)) formulation.
  Vector k_inv_diag = chol_->inverse_diagonal();
  LooDiagnostics out;
  out.residuals.resize(n);
  double acc = 0.0;
  std::size_t inside = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double kii = k_inv_diag[i];
    OSPREY_CHECK(kii > 0.0, "non-positive K^{-1} diagonal");
    // Standardized-scale LOO residual and variance.
    double resid_std = alpha_[i] / kii;
    double var_std = 1.0 / kii;
    double resid = resid_std * y_sd_;
    out.residuals[i] = resid;
    acc += resid * resid;
    double sd = std::sqrt(var_std) * y_sd_;
    if (std::fabs(resid) <= 1.96 * sd) ++inside;
  }
  out.rmse = std::sqrt(acc / static_cast<double>(n));
  out.coverage95 = static_cast<double>(inside) / static_cast<double>(n);
  return out;
}

}  // namespace osprey::gp
