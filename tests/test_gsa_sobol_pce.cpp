#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gsa/pce.hpp"
#include "gsa/sobol.hpp"
#include "num/simd.hpp"
#include "util/error.hpp"

namespace og = osprey::gsa;
namespace on = osprey::num;

namespace {

/// Additive linear model y = 2 x0 + 1 x1 + 0 x2 on [0,1]^3:
/// exact S1 = ST = (4, 1, 0)/5.
double linear_model(const on::Vector& x) {
  return 2.0 * x[0] + x[1] + 0.0 * x[2];
}

std::vector<on::ParamRange> unit_ranges(std::size_t d) {
  std::vector<on::ParamRange> out(d);
  for (std::size_t j = 0; j < d; ++j) out[j] = {"u", 0.0, 1.0};
  return out;
}

/// Ishigami function on [-pi, pi]^3 — the classic GSA benchmark with
/// known analytic indices.
double ishigami(const on::Vector& x) {
  const double a = 7.0, b = 0.1;
  return std::sin(x[0]) + a * std::sin(x[1]) * std::sin(x[1]) +
         b * std::pow(x[2], 4.0) * std::sin(x[0]);
}

struct IshigamiTruth {
  // Analytic first-order indices for a=7, b=0.1.
  double s1 = 0.3139;
  double s2 = 0.4424;
  double s3 = 0.0;
  double st1 = 0.5576;
  double st3 = 0.2437;
};

std::vector<on::ParamRange> ishigami_ranges() {
  return {{"x1", -M_PI, M_PI}, {"x2", -M_PI, M_PI}, {"x3", -M_PI, M_PI}};
}

}  // namespace

TEST(Saltelli, ExactForLinearModel) {
  og::SobolIndices idx =
      og::saltelli_indices(og::ModelFn(linear_model), unit_ranges(3), 4096);
  EXPECT_NEAR(idx.first_order[0], 0.8, 0.02);
  EXPECT_NEAR(idx.first_order[1], 0.2, 0.02);
  EXPECT_NEAR(idx.first_order[2], 0.0, 0.02);
  EXPECT_NEAR(idx.total_order[0], 0.8, 0.02);
  EXPECT_NEAR(idx.total_order[2], 0.0, 0.02);
  EXPECT_EQ(idx.evaluations, 4096u * 5u);
  EXPECT_NEAR(idx.output_variance, 4.0 / 12.0 + 1.0 / 12.0, 0.01);
}

TEST(Saltelli, IshigamiMatchesAnalytic) {
  IshigamiTruth truth;
  og::SobolIndices idx =
      og::saltelli_indices(og::ModelFn(ishigami), ishigami_ranges(), 8192);
  EXPECT_NEAR(idx.first_order[0], truth.s1, 0.03);
  EXPECT_NEAR(idx.first_order[1], truth.s2, 0.03);
  EXPECT_NEAR(idx.first_order[2], truth.s3, 0.03);
  EXPECT_NEAR(idx.total_order[0], truth.st1, 0.03);
  EXPECT_NEAR(idx.total_order[2], truth.st3, 0.03);
  // Interactions: ST >= S1.
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_GE(idx.total_order[j], idx.first_order[j] - 0.03);
  }
}

TEST(Saltelli, ConstantModelGivesZeroIndices) {
  og::SobolIndices idx = og::saltelli_indices(
      og::ModelFn([](const on::Vector&) { return 5.0; }), unit_ranges(2),
      256);
  EXPECT_DOUBLE_EQ(idx.first_order[0], 0.0);
  EXPECT_DOUBLE_EQ(idx.total_order[1], 0.0);
  EXPECT_DOUBLE_EQ(idx.output_variance, 0.0);
}

TEST(Saltelli, BatchAndScalarAgree) {
  og::BatchModelFn batch = [](const on::Matrix& x) {
    on::Vector out(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) out[i] = linear_model(x.row(i));
    return out;
  };
  og::SobolIndices a = og::saltelli_indices(batch, unit_ranges(3), 1024);
  og::SobolIndices b =
      og::saltelli_indices(og::ModelFn(linear_model), unit_ranges(3), 1024);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(a.first_order[j], b.first_order[j]);
  }
}

TEST(Saltelli, SubSquareKernelIsBitIdenticalToScalar) {
  // The Jansen estimator inner loop now runs on num::simd::sub_square;
  // the replicate fan-out is only allowed if the kernel is bitwise
  // identical to the scalar (a-b)^2 it replaced. Odd n covers the
  // vector tail path.
  for (std::size_t n : {1ull, 4ull, 7ull, 64ull, 129ull}) {
    std::vector<double> a(n), b(n), out(n, -1.0);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = std::sin(0.1 * static_cast<double>(i + 1)) * 1e3;
      b[i] = std::cos(0.3 * static_cast<double>(i)) / 7.0;
    }
    osprey::num::simd::sub_square(a.data(), b.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      double d = a[i] - b[i];
      ASSERT_EQ(out[i], d * d) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernel, AxpyIsBitIdenticalToScalar) {
  // num::simd::axpy accumulates ensemble members two days per vector;
  // each element must be the scalar out += w * x. Odd n covers the
  // vector tail path.
  const double w = 0.37;
  for (std::size_t n : {1ull, 2ull, 7ull, 64ull, 129ull}) {
    std::vector<double> x(n), out(n), expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = std::sin(0.7 * static_cast<double>(i + 1)) * 1e2;
      out[i] = std::cos(0.2 * static_cast<double>(i)) / 3.0;
      expected[i] = out[i] + w * x[i];
    }
    osprey::num::simd::axpy(w, x.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], expected[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Saltelli, InputValidation) {
  EXPECT_THROW(
      og::saltelli_indices(og::ModelFn(linear_model), {}, 128),
      osprey::util::InvalidArgument);
  EXPECT_THROW(og::saltelli_indices(og::ModelFn(linear_model),
                                    unit_ranges(3), 2),
               osprey::util::InvalidArgument);
  // 2d > 10 exceeds the Sobol' table.
  EXPECT_THROW(og::saltelli_indices(og::ModelFn(linear_model),
                                    unit_ranges(6), 128),
               osprey::util::InvalidArgument);
}

TEST(Pce, ReproducesPolynomialExactly) {
  // y is itself degree-2: a degree-3 PCE with enough points must
  // reproduce it to machine precision.
  auto poly = [](const on::Vector& u) {
    return 1.0 + 2.0 * u[0] + 3.0 * u[1] * u[1];
  };
  on::RngStream rng(1);
  on::Matrix u = on::latin_hypercube(100, 2, rng);
  on::Vector y(100);
  for (std::size_t i = 0; i < 100; ++i) y[i] = poly(u.row(i));
  og::PceModel pce(u, y, og::PceConfig{3, 1e-12});
  for (std::size_t i = 0; i < 10; ++i) {
    on::Vector probe{rng.uniform(), rng.uniform()};
    EXPECT_NEAR(pce.predict(probe), poly(probe), 1e-8);
  }
}

TEST(Pce, SobolOfAdditiveModel) {
  og::SobolIndices idx = og::pce_gsa(og::ModelFn(linear_model),
                                     unit_ranges(3), 200, 7);
  EXPECT_NEAR(idx.first_order[0], 0.8, 0.02);
  EXPECT_NEAR(idx.first_order[1], 0.2, 0.02);
  EXPECT_NEAR(idx.first_order[2], 0.0, 0.02);
  EXPECT_EQ(idx.evaluations, 200u);
}

TEST(Pce, InteractionShowsInTotalOrder) {
  // y = x0 * x1 (centered inputs): pure interaction terms exist.
  auto prod = [](const on::Vector& x) {
    return (x[0] - 0.5) * (x[1] - 0.5);
  };
  og::SobolIndices idx =
      og::pce_gsa(og::ModelFn(prod), unit_ranges(2), 300, 11);
  // First-order indices ~0; total order ~1 for both.
  EXPECT_NEAR(idx.first_order[0], 0.0, 0.05);
  EXPECT_NEAR(idx.total_order[0], 1.0, 0.05);
  EXPECT_NEAR(idx.total_order[1], 1.0, 0.05);
}

TEST(Pce, NumTermsMatchesTotalDegree) {
  on::RngStream rng(2);
  on::Matrix u = on::latin_hypercube(100, 5, rng);
  on::Vector y(100, 1.0);
  og::PceModel pce(u, y, og::PceConfig{3, 1e-8});
  EXPECT_EQ(pce.num_terms(), 56u);  // C(5+3, 3)
}

TEST(Pce, UnderdeterminedFitIsNoisyButFinite) {
  // n=20 < 56 terms: the ridge keeps it finite (the paper's "limitations
  // of one-shot approaches" at small budgets).
  og::SobolIndices idx = og::pce_gsa(og::ModelFn(linear_model),
                                     unit_ranges(3), 20, 3,
                                     og::PceConfig{3, 1e-6});
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_TRUE(std::isfinite(idx.first_order[j]));
  }
}

TEST(Pce, DegreeThreeBeatsDegreeOneOnCurvedModel) {
  auto curved = [](const on::Vector& u) {
    return std::sin(2.5 * u[0]) + u[1];
  };
  on::RngStream rng(4);
  on::Matrix u = on::latin_hypercube(120, 2, rng);
  on::Vector y(120);
  for (std::size_t i = 0; i < 120; ++i) y[i] = curved(u.row(i));
  og::PceModel deg1(u, y, og::PceConfig{1, 1e-10});
  og::PceModel deg3(u, y, og::PceConfig{3, 1e-10});
  double err1 = 0.0, err3 = 0.0;
  for (int i = 0; i < 50; ++i) {
    on::Vector probe{rng.uniform(), rng.uniform()};
    err1 += std::fabs(deg1.predict(probe) - curved(probe));
    err3 += std::fabs(deg3.predict(probe) - curved(probe));
  }
  EXPECT_LT(err3, 0.5 * err1);
}
