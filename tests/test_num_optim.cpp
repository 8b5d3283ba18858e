#include "num/optim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "util/thread_pool.hpp"

namespace on = osprey::num;

TEST(NelderMead, MinimizesQuadratic) {
  auto fn = [](const on::Vector& x) {
    return (x[0] - 2.0) * (x[0] - 2.0) + 3.0 * (x[1] + 1.0) * (x[1] + 1.0);
  };
  on::OptimResult r = on::nelder_mead(fn, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-4);
  EXPECT_NEAR(r.x[1], -1.0, 1e-4);
  EXPECT_NEAR(r.f, 0.0, 1e-7);
}

TEST(NelderMead, MinimizesRosenbrock2d) {
  auto fn = [](const on::Vector& x) {
    double a = 1.0 - x[0];
    double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  on::NelderMeadOptions opt;
  opt.max_iterations = 5000;
  on::OptimResult r = on::nelder_mead(fn, {-1.2, 1.0}, opt);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(NelderMead, HandlesOneDimension) {
  auto fn = [](const on::Vector& x) { return std::cosh(x[0] - 0.5); };
  on::OptimResult r = on::nelder_mead(fn, {5.0});
  EXPECT_NEAR(r.x[0], 0.5, 1e-4);
}

TEST(NelderMead, RespectsIterationCap) {
  auto fn = [](const on::Vector& x) { return x[0] * x[0]; };
  on::NelderMeadOptions opt;
  opt.max_iterations = 3;
  on::OptimResult r = on::nelder_mead(fn, {100.0}, opt);
  EXPECT_LE(r.iterations, 3u);
  EXPECT_FALSE(r.converged);
}

TEST(NelderMead, CountsEvaluations) {
  std::size_t calls = 0;
  auto fn = [&calls](const on::Vector& x) {
    ++calls;
    return x[0] * x[0];
  };
  on::OptimResult r = on::nelder_mead(fn, {3.0});
  EXPECT_EQ(r.evaluations, calls);
}

TEST(Multistart, EscapesLocalMinimum) {
  // Double well: local minimum near x=2.2 (f≈1), global near x=-1.8.
  auto fn = [](const on::Vector& v) {
    double x = v[0];
    return 0.1 * std::pow(x * x - 4.0, 2.0) + 0.5 * x;
  };
  on::RngStream rng(3);
  on::OptimResult local = on::nelder_mead(fn, {2.0});
  on::OptimResult multi = on::multistart_minimize(fn, {2.0}, 12, 5.0, rng);
  EXPECT_LT(multi.f, local.f - 0.5);
  EXPECT_NEAR(multi.x[0], -2.0, 0.3);
}

TEST(Multistart, PoolResultBitIdenticalToSerial) {
  // Starts are drawn before the searches run, and each search writes its
  // own slot, so a 4-thread pool returns exactly the serial result.
  auto fn = [](const on::Vector& v) {
    return std::pow(1.0 - v[0], 2.0) +
           100.0 * std::pow(v[1] - v[0] * v[0], 2.0) + std::sin(3.0 * v[0]);
  };
  on::RngStream serial_rng(9);
  on::RngStream pooled_rng(9);
  osprey::util::ThreadPool pool(4);
  on::OptimResult serial =
      on::multistart_minimize(fn, {-1.0, 1.5}, 6, 1.5, serial_rng);
  on::OptimResult pooled = on::multistart_minimize(
      fn, {-1.0, 1.5}, 6, 1.5, pooled_rng, {}, &pool);
  ASSERT_EQ(pooled.x.size(), serial.x.size());
  EXPECT_EQ(std::memcmp(pooled.x.data(), serial.x.data(),
                        serial.x.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&pooled.f, &serial.f, sizeof(double)), 0);
  EXPECT_EQ(pooled.iterations, serial.iterations);
  EXPECT_EQ(pooled.evaluations, serial.evaluations);
  EXPECT_EQ(pooled.converged, serial.converged);
  EXPECT_EQ(pooled_rng.uniform(), serial_rng.uniform());
}
