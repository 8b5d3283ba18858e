#pragma once

/// \file stats.hpp
/// Descriptive statistics used by posterior summarization, convergence
/// tracking, and the benchmark tables.

#include <cstddef>
#include <vector>

namespace osprey::num {

double mean(const std::vector<double>& xs);
/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double variance(const std::vector<double>& xs);
double stddev(const std::vector<double>& xs);

/// Weighted mean; weights need not be normalized.
double weighted_mean(const std::vector<double>& xs,
                     const std::vector<double>& ws);

/// Quantile with linear interpolation (R type-7). q in [0, 1].
double quantile(std::vector<double> xs, double q);
/// Same, in place: reorders `xs` instead of copying it. Reads the two
/// order statistics the interpolation needs by selection (a branch-free
/// quickselect, then the minimum above it), so it returns the bits a
/// full sort and quantile_sorted would, in expected O(n) per call.
/// Several quantiles of one sample may be taken in turn on one vector.
double quantile_select(std::vector<double>& xs, double q);
/// Same, for data already sorted ascending — no copy, no reordering.
double quantile_sorted(const std::vector<double>& sorted_xs, double q);
double median(const std::vector<double>& xs);

/// sqrt(mean((a-b)^2)).
double rmse(const std::vector<double>& a, const std::vector<double>& b);
/// mean(|a-b|).
double mae(const std::vector<double>& a, const std::vector<double>& b);

/// Pearson correlation; 0 when either side is constant.
double correlation(const std::vector<double>& a, const std::vector<double>& b);

/// Five-number-ish summary for tables.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double sd = 0.0;
  double min = 0.0;
  double q025 = 0.0;
  double median = 0.0;
  double q975 = 0.0;
  double max = 0.0;
};

Summary summarize(const std::vector<double>& xs);

/// Streaming mean/variance (Welford). Used by long-running monitors.
class RunningStat {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace osprey::num
