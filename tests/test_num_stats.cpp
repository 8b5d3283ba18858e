#include "num/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "bit_pin.hpp"
#include "num/special.hpp"
#include "util/error.hpp"

namespace on = osprey::num;

TEST(Stats, MeanVarianceKnown) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(on::mean(xs), 5.0);
  EXPECT_NEAR(on::variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Stats, EmptyMeanThrows) {
  EXPECT_THROW(on::mean({}), osprey::util::InvalidArgument);
}

TEST(Stats, VarianceOfSingletonIsZero) {
  EXPECT_DOUBLE_EQ(on::variance({3.0}), 0.0);
}

TEST(Stats, WeightedMean) {
  EXPECT_DOUBLE_EQ(on::weighted_mean({1.0, 3.0}, {1.0, 3.0}), 2.5);
  EXPECT_THROW(on::weighted_mean({1.0}, {0.0}), osprey::util::InvalidArgument);
}

TEST(Stats, QuantileType7) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(on::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(on::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(on::quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(on::quantile(xs, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(on::median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Stats, QuantileSortedMatchesQuantileOnRandomSample) {
  // quantile() sorts internally; quantile_sorted() trusts the caller.
  // On a pre-sorted fixed-seed sample they must agree exactly.
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> unif(-50.0, 50.0);
  std::vector<double> xs(501);
  for (double& x : xs) x = unif(rng);
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.025, 0.1, 0.25, 0.5, 0.643, 0.9, 0.975, 1.0}) {
    EXPECT_DOUBLE_EQ(on::quantile_sorted(sorted, q), on::quantile(xs, q))
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(on::quantile_sorted({7.0}, 0.31), 7.0);
  EXPECT_THROW(on::quantile_sorted({}, 0.5), osprey::util::InvalidArgument);
  EXPECT_THROW(on::quantile_sorted({1.0}, 1.5), osprey::util::InvalidArgument);
}

TEST(Stats, QuantileBySelectionIsBitwiseTheSortedQuantile) {
  // quantile() and quantile_select() select the two order statistics
  // type-7 interpolates between; a full sort + quantile_sorted() is the
  // reference. Sizes 1..257, continuous and heavily tied samples, and
  // several quantiles taken in turn on one reordered vector.
  std::mt19937_64 rng(20251022);
  std::uniform_real_distribution<double> unif(-3.0, 7.0);
  std::uniform_int_distribution<int> level(0, 3);
  const std::vector<double> qs{0.0, 0.025, 0.5, 0.975, 1.0};
  for (std::size_t n = 1; n <= 257; ++n) {
    for (bool tied : {false, true}) {
      std::vector<double> xs(n);
      for (double& x : xs) {
        x = tied ? 1.0 + 0.25 * level(rng) : unif(rng);
      }
      std::vector<double> sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      std::vector<double> expected;
      std::vector<double> by_copy;
      std::vector<double> in_turn;
      std::vector<double> work = xs;
      for (double q : qs) {
        expected.push_back(on::quantile_sorted(sorted, q));
        by_copy.push_back(on::quantile(xs, q));
        in_turn.push_back(on::quantile_select(work, q));
      }
      expected.push_back(on::quantile_sorted(sorted, 0.5));
      by_copy.push_back(on::median(xs));
      in_turn.push_back(on::quantile_select(work, 0.5));
      const std::string what = "n=" + std::to_string(n) +
                               (tied ? " tied" : " continuous");
      osprey::testing::expect_bits(by_copy, expected, "quantile " + what);
      osprey::testing::expect_bits(in_turn, expected,
                                   "quantile_select " + what);
      // Selection only reorders: the sample's values are all still there.
      std::sort(work.begin(), work.end());
      osprey::testing::expect_bits(work, sorted, "reordered " + what);
    }
  }
  std::vector<double> empty;
  EXPECT_THROW(on::quantile_select(empty, 0.5),
               osprey::util::InvalidArgument);
  std::vector<double> one{1.0};
  EXPECT_THROW(on::quantile_select(one, -0.1), osprey::util::InvalidArgument);
}

TEST(Stats, SummarizeMatchesIndividualQuantiles) {
  // summarize() now sorts once and reuses the sorted copy for min, max,
  // and the three quantiles; the outputs must be unchanged.
  std::mt19937_64 rng(99);
  std::normal_distribution<double> norm(3.0, 2.0);
  std::vector<double> xs(777);
  for (double& x : xs) x = norm(rng);
  on::Summary s = on::summarize(xs);
  EXPECT_DOUBLE_EQ(s.min, *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(s.max, *std::max_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(s.q025, on::quantile(xs, 0.025));
  EXPECT_DOUBLE_EQ(s.median, on::quantile(xs, 0.5));
  EXPECT_DOUBLE_EQ(s.q975, on::quantile(xs, 0.975));
  EXPECT_DOUBLE_EQ(s.mean, on::mean(xs));
  EXPECT_DOUBLE_EQ(s.sd, on::stddev(xs));
}

TEST(Stats, RmseMae) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{1.0, 4.0, 1.0};
  EXPECT_NEAR(on::rmse(a, b), std::sqrt((0.0 + 4.0 + 4.0) / 3.0), 1e-12);
  EXPECT_NEAR(on::mae(a, b), 4.0 / 3.0, 1e-12);
}

TEST(Stats, CorrelationPerfectAndConstant) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{2.0, 4.0, 6.0};
  std::vector<double> c{-1.0, -2.0, -3.0};
  std::vector<double> flat{5.0, 5.0, 5.0};
  EXPECT_NEAR(on::correlation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(on::correlation(a, c), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(on::correlation(a, flat), 0.0);
}

TEST(Stats, SummaryFields) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  on::Summary s = on::summarize(xs);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_LT(s.q025, s.median);
  EXPECT_GT(s.q975, s.median);
}

TEST(Stats, RunningStatMatchesBatch) {
  std::vector<double> xs{1.5, -2.0, 3.25, 0.0, 10.0};
  on::RunningStat rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), on::mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), on::variance(xs), 1e-12);
}

TEST(Special, GammaPKnownValues) {
  // P(1, x) = 1 - exp(-x).
  EXPECT_NEAR(on::gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-10);
  EXPECT_NEAR(on::gamma_p(1.0, 0.0), 0.0, 1e-15);
  // P(0.5, x) = erf(sqrt(x)).
  EXPECT_NEAR(on::gamma_p(0.5, 2.0), std::erf(std::sqrt(2.0)), 1e-10);
  // Large-x limit.
  EXPECT_NEAR(on::gamma_p(3.0, 100.0), 1.0, 1e-12);
}

TEST(Special, GammaQuantileInvertsCdf) {
  for (double shape : {0.7, 2.0, 11.0}) {
    for (double q : {0.025, 0.5, 0.975}) {
      double x = on::gamma_quantile(q, shape, 2.0);
      EXPECT_NEAR(on::gamma_p(shape, x / 2.0), q, 1e-8)
          << "shape=" << shape << " q=" << q;
    }
  }
}

TEST(Special, NormalQuantileMatchesCdf) {
  for (double q : {0.001, 0.025, 0.3, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(on::normal_cdf(on::normal_quantile(q)), q, 1e-8);
  }
  EXPECT_NEAR(on::normal_quantile(0.975), 1.959964, 1e-5);
}
