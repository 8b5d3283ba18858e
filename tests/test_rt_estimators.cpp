#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bit_pin.hpp"
#include "epi/kernels.hpp"
#include "epi/wastewater.hpp"
#include "num/stats.hpp"
#include "rt/cori.hpp"
#include "rt/ensemble.hpp"
#include "rt/goldstein.hpp"
#include "util/error.hpp"

namespace oe = osprey::epi;
namespace ort = osprey::rt;
namespace on = osprey::num;

namespace {

/// Fast MCMC settings for tests.
ort::GoldsteinConfig test_config(const oe::Plant& plant) {
  ort::GoldsteinConfig cfg;
  cfg.iterations = 1200;
  cfg.burnin = 600;
  cfg.thin = 3;
  cfg.flow_liters_per_day = plant.avg_flow_mgd * 3.785e6;
  cfg.seed = 99;
  return cfg;
}

}  // namespace

TEST(Goldstein, KnotCount) {
  ort::GoldsteinConfig cfg;
  ort::GoldsteinEstimator est(cfg);
  EXPECT_EQ(est.num_knots(8), 2);    // knots at 0, 7 cover day 7
  EXPECT_EQ(est.num_knots(15), 3);   // 0, 7, 14
  EXPECT_EQ(est.num_knots(16), 4);   // needs one past day 15
}

TEST(Goldstein, ConfigValidation) {
  ort::GoldsteinConfig cfg;
  cfg.burnin = cfg.iterations;
  EXPECT_THROW(ort::GoldsteinEstimator{cfg}, osprey::util::InvalidArgument);
}

TEST(Goldstein, RequiresEnoughSamples) {
  ort::GoldsteinEstimator est{ort::GoldsteinConfig{}};
  std::vector<oe::WwSample> samples{{0, 1.0}, {2, 1.0}};
  EXPECT_THROW(est.estimate(samples, 30), osprey::util::InvalidArgument);
}

TEST(Goldstein, ThinnedDrawCountUsesCeilingDivision) {
  // iterations=100, burnin=40, thin=7: draws land at post-burn-in
  // offsets 0, 7, ..., 56 -> ceil(60 / 7) = 9 draws. The old floor
  // division allocated 8 rows and silently dropped the last draw.
  oe::Plant plant = oe::chicago_plants()[0];
  ort::GoldsteinConfig cfg;
  cfg.iterations = 100;
  cfg.burnin = 40;
  cfg.thin = 7;
  cfg.flow_liters_per_day = plant.avg_flow_mgd * 3.785e6;
  oe::WastewaterConfig wcfg;
  wcfg.days = 30;
  oe::WastewaterGenerator gen(plant, oe::chicago_truths()[0], wcfg, 11);
  ort::GoldsteinEstimator est(cfg);
  ort::RtPosterior posterior = est.estimate(gen.samples(), 30);
  EXPECT_EQ(posterior.n_draws(), 9u);
  // Every allocated row was written (no silent zero rows at the tail).
  for (std::size_t d = 0; d < posterior.n_draws(); ++d) {
    EXPECT_GT(posterior.draws(d, 15), 0.0) << "empty draw row " << d;
  }
}

TEST(Goldstein, ExplicitSeedOverloadMatchesConfigSeed) {
  oe::Plant plant = oe::chicago_plants()[0];
  oe::WastewaterConfig wcfg;
  wcfg.days = 40;
  oe::WastewaterGenerator gen(plant, oe::chicago_truths()[0], wcfg, 6);
  ort::GoldsteinConfig cfg = test_config(plant);
  cfg.iterations = 300;
  cfg.burnin = 150;
  ort::GoldsteinEstimator est(cfg);
  ort::RtPosterior a = est.estimate(gen.samples(), 40);
  ort::RtPosterior b = est.estimate(gen.samples(), 40, cfg.seed);
  ort::RtPosterior c = est.estimate(gen.samples(), 40, cfg.seed + 1);
  ASSERT_EQ(a.n_draws(), b.n_draws());
  bool differs_from_c = false;
  for (std::size_t d = 0; d < a.n_draws(); ++d) {
    for (std::size_t t = 0; t < a.days(); ++t) {
      EXPECT_EQ(a.draws(d, t), b.draws(d, t));
      if (a.draws(d, t) != c.draws(d, t)) differs_from_c = true;
    }
  }
  EXPECT_TRUE(differs_from_c) << "seed had no effect on the chain";
}

TEST(Goldstein, NegLogPosteriorFiniteAndPenalizesBadParams) {
  oe::Plant plant = oe::chicago_plants()[0];
  oe::WastewaterConfig wcfg;
  wcfg.days = 60;
  oe::WastewaterGenerator gen(plant, oe::chicago_truths()[0], wcfg, 4);
  ort::GoldsteinEstimator est(test_config(plant));
  int k = est.num_knots(60);
  std::vector<double> theta(static_cast<std::size_t>(k) + 2, 0.0);
  theta[static_cast<std::size_t>(k)] = std::log(100.0);  // log I0
  theta[static_cast<std::size_t>(k) + 1] = std::log(0.5);
  double nlp = est.neg_log_posterior(theta, gen.samples(), 60);
  EXPECT_TRUE(std::isfinite(nlp));
  EXPECT_LT(nlp, 1e11);
  // Absurd sigma is rejected with the guard value.
  theta[static_cast<std::size_t>(k) + 1] = 10.0;
  EXPECT_GE(est.neg_log_posterior(theta, gen.samples(), 60), 1e12);
}

TEST(Goldstein, RecoversConstantRt) {
  // Synthetic data with flat truth R = 1.1: posterior median should sit
  // near 1.1 in the interior of the horizon.
  oe::Plant plant = oe::chicago_plants()[0];
  oe::RtTruthParams truth;
  truth.level = std::log(1.1);
  truth.amp = 0.0;
  truth.trend_per_day = 0.0;
  oe::WastewaterConfig wcfg;
  wcfg.days = 70;
  wcfg.noise_sigma = 0.25;
  oe::WastewaterGenerator gen(plant, truth, wcfg, 21);
  ort::GoldsteinEstimator est(test_config(plant));
  ort::RtPosterior posterior = est.estimate(gen.samples(), 70);
  ort::RtSeries series = posterior.summarize();
  // Interior days (estimation at the edges is harder).
  std::vector<double> interior(series.median.begin() + 14,
                               series.median.end() - 7);
  EXPECT_NEAR(on::median(interior), 1.1, 0.12);
  EXPECT_GT(posterior.acceptance_rate, 0.1);
  EXPECT_LT(posterior.acceptance_rate, 0.9);
}

TEST(Goldstein, TracksTimeVaryingRt) {
  oe::Plant plant = oe::chicago_plants()[0];
  oe::WastewaterConfig wcfg;
  wcfg.days = 100;
  oe::WastewaterGenerator gen(plant, oe::chicago_truths()[0], wcfg, 8);
  ort::GoldsteinEstimator est(test_config(plant));
  ort::RtSeries series = est.estimate(gen.samples(), 100).summarize();
  std::vector<double> truth = gen.true_rt();
  truth.resize(100);
  // Interior accuracy and correlation with the truth wave.
  std::vector<double> est_mid(series.median.begin() + 10,
                              series.median.end() - 10);
  std::vector<double> truth_mid(truth.begin() + 10, truth.end() - 10);
  EXPECT_LT(on::rmse(est_mid, truth_mid), 0.15);
  EXPECT_GT(on::correlation(est_mid, truth_mid), 0.7);
}

TEST(Goldstein, IntervalsWidenWithNoise) {
  oe::Plant plant = oe::chicago_plants()[0];
  oe::WastewaterConfig low_noise;
  low_noise.days = 60;
  low_noise.noise_sigma = 0.1;
  oe::WastewaterConfig high_noise = low_noise;
  high_noise.noise_sigma = 0.8;
  oe::WastewaterGenerator gen_lo(plant, oe::chicago_truths()[0], low_noise, 5);
  oe::WastewaterGenerator gen_hi(plant, oe::chicago_truths()[0], high_noise, 5);
  ort::GoldsteinEstimator est(test_config(plant));
  ort::RtSeries lo = est.estimate(gen_lo.samples(), 60).summarize();
  ort::RtSeries hi = est.estimate(gen_hi.samples(), 60).summarize();
  double lo_width = 0.0, hi_width = 0.0;
  for (std::size_t t = 10; t < 50; ++t) {
    lo_width += lo.hi95[t] - lo.lo95[t];
    hi_width += hi.hi95[t] - hi.lo95[t];
  }
  EXPECT_GT(hi_width, lo_width);
}

TEST(Cori, RecoverConstantROnSyntheticRenewal) {
  // Build a renewal process with constant R = 1.3 and feed the cases in.
  std::vector<double> w = oe::default_generation_interval();
  on::RngStream rng(17);
  std::vector<double> cases(90, 0.0);
  for (int t = 0; t < 14; ++t) cases[static_cast<std::size_t>(t)] = 50.0;
  for (std::size_t t = 14; t < cases.size(); ++t) {
    double pressure = oe::renewal_pressure(cases, t, w);
    cases[t] = static_cast<double>(rng.poisson(1.3 * pressure));
  }
  ort::CoriResult result = ort::estimate_cori(cases);
  // Average the reliable interior estimates.
  std::vector<double> interior;
  for (std::size_t t = 30; t < 85; ++t) {
    if (result.reliable[t]) interior.push_back(result.series.median[t]);
  }
  ASSERT_GT(interior.size(), 20u);
  EXPECT_NEAR(on::mean(interior), 1.3, 0.1);
}

TEST(Cori, CoverageIntervalContainsMedian) {
  std::vector<double> cases(50, 30.0);
  ort::CoriResult result = ort::estimate_cori(cases);
  for (std::size_t t = 10; t < 50; ++t) {
    EXPECT_LT(result.series.lo95[t], result.series.median[t]);
    EXPECT_GT(result.series.hi95[t], result.series.median[t]);
  }
}

TEST(Cori, ConstantCasesImplyRNearOne) {
  std::vector<double> cases(60, 100.0);
  ort::CoriResult result = ort::estimate_cori(cases);
  for (std::size_t t = 30; t < 60; ++t) {
    EXPECT_NEAR(result.series.median[t], 1.0, 0.05) << t;
  }
}

TEST(Cori, UnreliableWhenCountsTiny) {
  std::vector<double> cases(40, 0.1);
  ort::CoriResult result = ort::estimate_cori(cases);
  EXPECT_FALSE(result.reliable[20]);
}

TEST(Ensemble, WeightedAggregationMatchesHandComputation) {
  // Two members with constant draws 1.0 and 2.0, weights 1 and 3:
  // aggregate draw value = (1*1 + 3*2) / 4 = 1.75.
  ort::EnsembleMember a, b;
  a.name = "a";
  a.population_weight = 1.0;
  a.posterior.draws = on::Matrix(10, 5, 1.0);
  b.name = "b";
  b.population_weight = 3.0;
  b.posterior.draws = on::Matrix(10, 5, 2.0);
  ort::RtPosterior agg = ort::aggregate_population_weighted({a, b});
  EXPECT_EQ(agg.n_draws(), 10u);
  EXPECT_EQ(agg.days(), 5u);
  for (std::size_t d = 0; d < 10; ++d) {
    for (std::size_t t = 0; t < 5; ++t) {
      EXPECT_DOUBLE_EQ(agg.draws(d, t), 1.75);
    }
  }
}

TEST(Ensemble, DrawCountsMayDiffer) {
  ort::EnsembleMember a, b;
  a.population_weight = 1.0;
  a.posterior.draws = on::Matrix(4, 3, 1.0);
  b.population_weight = 1.0;
  b.posterior.draws = on::Matrix(8, 3, 3.0);
  ort::RtPosterior agg = ort::aggregate_population_weighted({a, b});
  EXPECT_EQ(agg.n_draws(), 8u);
  EXPECT_DOUBLE_EQ(agg.draws(7, 0), 2.0);
}

TEST(Ensemble, MismatchedHorizonThrows) {
  ort::EnsembleMember a, b;
  a.population_weight = 1.0;
  a.posterior.draws = on::Matrix(4, 3, 1.0);
  b.population_weight = 1.0;
  b.posterior.draws = on::Matrix(4, 5, 1.0);
  EXPECT_THROW(ort::aggregate_population_weighted({a, b}),
               osprey::util::InvalidArgument);
  EXPECT_THROW(ort::aggregate_population_weighted({}),
               osprey::util::InvalidArgument);
}

TEST(Ensemble, AggregationReducesNoise) {
  // Four noisy members around the same truth: the ensemble variance
  // must be below the average member variance.
  on::RngStream rng(3);
  std::vector<ort::EnsembleMember> members(4);
  for (auto& m : members) {
    m.population_weight = 1.0;
    m.posterior.draws = on::Matrix(200, 30);
    for (std::size_t d = 0; d < 200; ++d) {
      for (std::size_t t = 0; t < 30; ++t) {
        m.posterior.draws(d, t) = 1.0 + 0.3 * rng.normal();
      }
    }
  }
  ort::RtPosterior agg = ort::aggregate_population_weighted(members);
  std::vector<double> agg_col(200), member_col(200);
  for (std::size_t d = 0; d < 200; ++d) {
    agg_col[d] = agg.draws(d, 0);
    member_col[d] = members[0].posterior.draws(d, 0);
  }
  EXPECT_LT(on::stddev(agg_col), 0.7 * on::stddev(member_col));
}

TEST(Ensemble, ParallelEstimateMembersBitIdenticalToSerial) {
  // Each plant's chain is a pure function of (samples, days, config), so
  // fanning the estimates out on a pool must be bit-identical to the
  // serial loop — this is the guarantee the Figure-2 speedup rests on.
  const int days = 40;
  auto plants = oe::chicago_plants();
  auto truths = oe::chicago_truths();
  oe::WastewaterConfig wcfg;
  wcfg.days = days;
  std::vector<ort::PlantData> inputs;
  for (std::size_t p = 0; p < 3; ++p) {
    oe::WastewaterGenerator gen(plants[p], truths[p], wcfg, 50 + p);
    ort::PlantData pd;
    pd.name = plants[p].name;
    pd.population_weight = static_cast<double>(plants[p].population_served);
    pd.samples = gen.samples();
    pd.config.iterations = 240;
    pd.config.burnin = 120;
    pd.config.thin = 4;
    pd.config.flow_liters_per_day = plants[p].avg_flow_mgd * 3.785e6;
    pd.config.seed = 700 + p;
    inputs.push_back(std::move(pd));
  }
  std::vector<ort::EnsembleMember> serial =
      ort::estimate_members(inputs, days, nullptr);
  osprey::util::ThreadPool pool(3);
  std::vector<ort::EnsembleMember> parallel =
      ort::estimate_members(inputs, days, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    EXPECT_EQ(serial[p].name, inputs[p].name);
    EXPECT_EQ(parallel[p].name, inputs[p].name);
    EXPECT_EQ(serial[p].population_weight, parallel[p].population_weight);
    ASSERT_EQ(serial[p].posterior.n_draws(), parallel[p].posterior.n_draws());
    for (std::size_t d = 0; d < serial[p].posterior.n_draws(); ++d) {
      for (std::size_t t = 0; t < static_cast<std::size_t>(days); ++t) {
        ASSERT_EQ(serial[p].posterior.draws(d, t),
                  parallel[p].posterior.draws(d, t))
            << "plant " << p << " draw " << d << " day " << t;
      }
    }
  }
  // And the serial path matches a direct estimator call.
  ort::GoldsteinEstimator direct(inputs[0].config);
  ort::RtPosterior ref = direct.estimate(inputs[0].samples, days);
  EXPECT_EQ(serial[0].posterior.draws(0, 0), ref.draws(0, 0));
}

TEST(Ensemble, WeightedSeriesAverage) {
  std::vector<std::vector<double>> series{{1.0, 1.0}, {3.0, 5.0}};
  std::vector<double> weights{3.0, 1.0};
  std::vector<double> avg = ort::weighted_series_average(series, weights);
  EXPECT_DOUBLE_EQ(avg[0], 1.5);
  EXPECT_DOUBLE_EQ(avg[1], 2.0);
}

TEST(RtSeries, CoverageComputation) {
  ort::RtSeries s;
  s.median = {1.0, 1.0, 1.0, 1.0};
  s.lo95 = {0.8, 0.8, 0.8, 0.8};
  s.hi95 = {1.2, 1.2, 1.2, 1.2};
  std::vector<double> truth{1.0, 1.1, 1.5, 0.5};
  EXPECT_DOUBLE_EQ(s.coverage(truth), 0.5);
}

TEST(RtPosterior, SummarizeIsBitwiseTheSortedQuantiles) {
  // summarize() selects each day's order statistics; a full sort +
  // quantile_sorted() per day is the reference. Shapes of a warm refit
  // (60 draws x 218 days) and a cold one (200 x 29); draws are rounded
  // to three decimals so every day's column holds ties, as draws read
  // back from a 5-decimal CSV do.
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> rt(0.0, 0.2);
  for (auto [n_draws, days] : {std::pair<std::size_t, std::size_t>{60, 218},
                               std::pair<std::size_t, std::size_t>{200, 29}}) {
    ort::RtPosterior posterior;
    posterior.draws = on::Matrix(n_draws, days);
    for (std::size_t d = 0; d < n_draws; ++d) {
      for (std::size_t t = 0; t < days; ++t) {
        posterior.draws(d, t) = std::round(rt(rng) * 1000.0) / 1000.0;
      }
    }
    ort::RtSeries expected;
    for (std::size_t t = 0; t < days; ++t) {
      std::vector<double> col(n_draws);
      for (std::size_t d = 0; d < n_draws; ++d) col[d] = posterior.draws(d, t);
      std::sort(col.begin(), col.end());
      expected.median.push_back(on::quantile_sorted(col, 0.5));
      expected.lo95.push_back(on::quantile_sorted(col, 0.025));
      expected.hi95.push_back(on::quantile_sorted(col, 0.975));
    }
    const ort::RtSeries series = posterior.summarize();
    const std::string shape =
        std::to_string(n_draws) + "x" + std::to_string(days);
    osprey::testing::expect_bits(series.median, expected.median,
                                 "median " + shape);
    osprey::testing::expect_bits(series.lo95, expected.lo95, "lo95 " + shape);
    osprey::testing::expect_bits(series.hi95, expected.hi95, "hi95 " + shape);
  }
}
