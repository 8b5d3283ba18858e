#include "gp/gp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "num/cholesky.hpp"
#include "num/sampling.hpp"
#include "num/stats.hpp"
#include "util/error.hpp"

namespace og = osprey::gp;
namespace on = osprey::num;

namespace {

double test_fn(const on::Vector& u) {
  // Smooth 2-D function on the unit square.
  return std::sin(3.0 * u[0]) + 0.5 * std::cos(5.0 * u[1]) + u[0] * u[1];
}

/// Fit a GP on an n-point LHS of test_fn.
og::GaussianProcess fit_test_gp(std::size_t n, std::uint64_t seed = 1) {
  on::RngStream rng(seed);
  on::Matrix x = on::latin_hypercube(n, 2, rng);
  on::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = test_fn(x.row(i));
  og::GaussianProcess gp;
  gp.fit(x, y);
  return gp;
}

}  // namespace

TEST(Kernel, SymmetricAndPsdShape) {
  og::ArdSqExpKernel k;
  k.lengthscales = {0.5, 0.2};
  k.variance = 2.0;
  on::Vector a{0.1, 0.2}, b{0.3, 0.9};
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
  EXPECT_DOUBLE_EQ(k(a, a), 2.0);      // k(x,x) = variance
  EXPECT_LT(k(a, b), k(a, a));         // correlation decays
  EXPECT_GT(k(a, b), 0.0);
}

TEST(Kernel, AnisotropyMatters) {
  og::ArdSqExpKernel k;
  k.lengthscales = {10.0, 0.01};
  k.variance = 1.0;
  on::Vector base{0.5, 0.5};
  on::Vector moved_x1{0.9, 0.5};
  on::Vector moved_x2{0.5, 0.9};
  // Long lengthscale in dim 1: moving there barely matters; dim 2 kills
  // the correlation.
  EXPECT_GT(k(base, moved_x1), 0.99);
  EXPECT_LT(k(base, moved_x2), 1e-10);
}

TEST(Kernel, CovarianceMatrixMatchesPairwise) {
  og::ArdSqExpKernel k;
  k.lengthscales = {0.3, 0.3};
  k.variance = 1.5;
  on::RngStream rng(2);
  on::Matrix x = on::latin_hypercube(6, 2, rng);
  on::Matrix cov = k.covariance(x);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(cov(i, j), k(x.row(i), x.row(j)), 1e-12);
    }
  }
  on::Vector cross = k.cross(x, x.row(3));
  EXPECT_NEAR(cross[3], 1.5, 1e-12);
}

TEST(Gp, InterpolatesTrainingPoints) {
  og::GaussianProcess gp = fit_test_gp(30);
  // Re-predicting training points: tiny nugget -> near interpolation.
  on::RngStream rng(1);
  on::Matrix x = on::latin_hypercube(30, 2, rng);
  for (std::size_t i = 0; i < 30; i += 7) {
    og::GpPrediction pred = gp.predict(x.row(i));
    EXPECT_NEAR(pred.mean, test_fn(x.row(i)), 0.05);
  }
}

TEST(Gp, PredictsHeldOutPoints) {
  og::GaussianProcess gp = fit_test_gp(60);
  on::RngStream rng(99);
  std::vector<double> errors;
  for (int i = 0; i < 50; ++i) {
    on::Vector u{rng.uniform(), rng.uniform()};
    errors.push_back(std::fabs(gp.predict(u).mean - test_fn(u)));
  }
  EXPECT_LT(on::mean(errors), 0.05);
}

TEST(Gp, VarianceSmallAtDataLargeFarAway) {
  // Train only in the lower-left quadrant.
  on::RngStream rng(5);
  on::Matrix x(20, 2);
  on::Vector y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = 0.4 * rng.uniform();
    x(i, 1) = 0.4 * rng.uniform();
    y[i] = test_fn(x.row(i));
  }
  og::GaussianProcess gp;
  gp.fit(x, y);
  double var_near = gp.predict({0.2, 0.2}).variance;
  double var_far = gp.predict({0.95, 0.95}).variance;
  EXPECT_GT(var_far, 5.0 * var_near);
}

TEST(Gp, PredictMeanBatchMatchesSingle) {
  og::GaussianProcess gp = fit_test_gp(25);
  on::RngStream rng(7);
  on::Matrix q = on::latin_hypercube(10, 2, rng);
  on::Vector batch = gp.predict_mean(q);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(batch[i], gp.predict(q.row(i)).mean, 1e-9);
  }
}

TEST(Gp, PredictMeanFanOutMatchesSerialRows) {
  // 64 rows over 256 training points (rows x n = 16384) take the pooled
  // path; 1-row batches take the serial loop. Each row writes its own
  // slot, so the two must agree to the bit.
  on::RngStream rng(17);
  on::Matrix x = on::latin_hypercube(256, 2, rng);
  on::Vector y(256);
  for (std::size_t i = 0; i < 256; ++i) y[i] = test_fn(x.row(i));
  og::GaussianProcess gp;
  gp.update_data(x, y);  // default hyperparameters; no MLE needed here
  on::Matrix q = on::latin_hypercube(64, 2, rng);
  on::Vector batch = gp.predict_mean(q);
  on::Vector rows(q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    on::Matrix one(1, 2);
    one.set_row(0, q.row(i));
    rows[i] = gp.predict_mean(one)[0];
  }
  EXPECT_EQ(std::memcmp(batch.data(), rows.data(),
                        rows.size() * sizeof(double)),
            0);
}

TEST(Gp, AddPointImprovesLocalFit) {
  og::GaussianProcess gp = fit_test_gp(15);
  on::Vector target{0.77, 0.33};
  double before_var = gp.predict(target).variance;
  gp.add_point(target, test_fn(target));
  double after_var = gp.predict(target).variance;
  EXPECT_LT(after_var, before_var * 0.5);
  EXPECT_NEAR(gp.predict(target).mean, test_fn(target), 0.05);
  EXPECT_EQ(gp.n(), 16u);
}

TEST(Gp, IncrementalAddMatchesFullRefitOverThirtyPoints) {
  // The rank-1 Cholesky path must agree with the from-scratch
  // re-factorization to tight tolerance across a long run of sequential
  // additions. The reference is a twin conditioned by update_data on the
  // grown set, with the same (unchanged) hyperparameters.
  const std::size_t n0 = 20;
  const std::size_t n_add = 30;
  on::RngStream rng(42);
  on::Matrix x0 = on::latin_hypercube(n0, 2, rng);
  on::Vector y0(n0);
  for (std::size_t i = 0; i < n0; ++i) y0[i] = test_fn(x0.row(i));

  og::GaussianProcess inc;
  og::GaussianProcess full;
  inc.fit(x0, y0);
  full.fit(x0, y0);

  on::Matrix additions = on::latin_hypercube(n_add, 2, rng);
  on::Matrix queries = on::latin_hypercube(25, 2, rng);
  on::Matrix grown_x = x0;
  on::Vector grown_y = y0;
  for (std::size_t i = 0; i < n_add; ++i) {
    on::Vector p = additions.row(i);
    double y = test_fn(p);
    inc.add_point(p, y);
    on::Matrix next_x(grown_x.rows() + 1, 2);
    for (std::size_t r = 0; r < grown_x.rows(); ++r) {
      next_x.set_row(r, grown_x.row(r));
    }
    next_x.set_row(grown_x.rows(), p);
    grown_x = std::move(next_x);
    grown_y.push_back(y);
    full.update_data(grown_x, grown_y);
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      og::GpPrediction a = inc.predict(queries.row(q));
      og::GpPrediction b = full.predict(queries.row(q));
      EXPECT_NEAR(a.mean, b.mean, 1e-8) << "add " << i << " query " << q;
      EXPECT_NEAR(a.variance, b.variance, 1e-8)
          << "add " << i << " query " << q;
    }
  }
  EXPECT_EQ(inc.n(), n0 + n_add);
  EXPECT_NEAR(inc.log_marginal_likelihood(), full.log_marginal_likelihood(),
              1e-8);
}

TEST(Gp, LeaveOneOutMatchesDenseInverseFormulation) {
  // The rewritten LOO (K^{-1} diagonal straight from the factor) must
  // reproduce the old solve(Matrix::identity(n)) formulation at n=150.
  const std::size_t n = 150;
  on::RngStream rng(7);
  on::Matrix x = on::latin_hypercube(n, 2, rng);
  on::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = test_fn(x.row(i)) + 0.05 * rng.normal();
  }
  og::GpConfig cfg;
  cfg.mle_restarts = 0;
  og::GaussianProcess gp(cfg);
  gp.fit(x, y);
  og::GaussianProcess::LooDiagnostics fast = gp.leave_one_out();

  // Reference: materialize K^{-1} the old way from the fitted
  // hyperparameters and recompute the closed-form residuals. condition()
  // adds nugget + jitter and cholesky_with_jitter layers one more base
  // jitter on its (successful) first attempt, so the factored diagonal
  // is nugget + 2 * jitter.
  on::Matrix k = gp.kernel().covariance(x);
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) += gp.nugget() + 2.0 * cfg.jitter;
  }
  on::Cholesky chol(k);
  on::Matrix k_inv = chol.solve(on::Matrix::identity(n));
  double y_mean = on::mean(y);
  double y_sd = on::stddev(y);
  on::Vector y_std(n);
  for (std::size_t i = 0; i < n; ++i) y_std[i] = (y[i] - y_mean) / y_sd;
  on::Vector alpha = chol.solve(y_std);
  ASSERT_EQ(fast.residuals.size(), n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double resid = (alpha[i] / k_inv(i, i)) * y_sd;
    EXPECT_NEAR(fast.residuals[i], resid, 1e-8) << i;
    acc += resid * resid;
  }
  EXPECT_NEAR(fast.rmse, std::sqrt(acc / static_cast<double>(n)), 1e-8);
  EXPECT_GE(fast.coverage95, 0.85);  // sane diagnostics on a smooth fn
}

TEST(Gp, LogMarginalLikelihoodImprovesWithReoptimize) {
  on::RngStream rng(11);
  on::Matrix x = on::latin_hypercube(40, 2, rng);
  on::Vector y(40);
  for (std::size_t i = 0; i < 40; ++i) y[i] = test_fn(x.row(i));
  og::GaussianProcess gp;
  gp.update_data(x, y);  // default hyperparameters
  double before = gp.log_marginal_likelihood();
  gp.reoptimize();
  double after = gp.log_marginal_likelihood();
  EXPECT_GE(after, before - 1e-9);
}

TEST(Gp, HandlesNoisyReplicatesViaNugget) {
  // y = f(x) + noise; the estimated nugget should absorb the noise, and
  // predictions should sit near the noiseless function.
  on::RngStream rng(13);
  const std::size_t n = 80;
  on::Matrix x = on::latin_hypercube(n, 2, rng);
  on::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = test_fn(x.row(i)) + 0.2 * rng.normal();
  }
  og::GaussianProcess gp;
  gp.fit(x, y);
  EXPECT_GT(gp.nugget(), 1e-4);  // noise absorbed
  std::vector<double> errors;
  for (int i = 0; i < 40; ++i) {
    on::Vector u{rng.uniform(), rng.uniform()};
    errors.push_back(std::fabs(gp.predict(u).mean - test_fn(u)));
  }
  EXPECT_LT(on::mean(errors), 0.15);
}

TEST(Gp, ConstantResponsesDoNotCrash) {
  on::Matrix x(5, 1);
  for (std::size_t i = 0; i < 5; ++i) x(i, 0) = 0.2 * static_cast<double>(i);
  on::Vector y(5, 3.0);
  og::GaussianProcess gp;
  gp.fit(x, y);
  EXPECT_NEAR(gp.predict({0.5}).mean, 3.0, 0.2);
}

TEST(Gp, PreconditionsEnforced) {
  og::GaussianProcess gp;
  EXPECT_THROW(gp.predict({0.5}), osprey::util::InvalidArgument);
  on::Matrix x(1, 1, 0.5);
  EXPECT_THROW(gp.fit(x, {1.0}), osprey::util::InvalidArgument);
  on::Matrix x2(3, 1, 0.5);
  EXPECT_THROW(gp.fit(x2, {1.0, 2.0}), osprey::util::InvalidArgument);
}
