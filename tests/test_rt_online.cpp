/// Online/incremental Goldstein estimator tests: the bit-identity
/// contract of the LikelihoodWorkspace, the knots_to_daily partial
/// final-segment fix, and the warm-start estimate_update() path.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "artifact_dump.hpp"
#include "bit_pin.hpp"
#include "core/usecase_ww.hpp"
#include "epi/kernels.hpp"
#include "epi/wastewater.hpp"
#include "num/rng.hpp"
#include "num/simd.hpp"
#include "num/stats.hpp"
#include "rt/goldstein.hpp"
#include "rt/likelihood_ws.hpp"
#include "util/error.hpp"

namespace oe = osprey::epi;
namespace ort = osprey::rt;
namespace on = osprey::num;

namespace {

ort::GoldsteinConfig fast_config(const oe::Plant& plant) {
  ort::GoldsteinConfig cfg;
  cfg.iterations = 1200;
  cfg.burnin = 600;
  cfg.thin = 3;
  cfg.update_iterations = 300;
  cfg.update_burnin = 100;
  cfg.flow_liters_per_day = plant.avg_flow_mgd * 3.785e6;
  cfg.seed = 99;
  return cfg;
}

std::vector<oe::WwSample> make_samples(int days, std::uint64_t seed = 100) {
  oe::Plant plant = oe::chicago_plants()[0];
  oe::RtTruthParams truth = oe::chicago_truths()[0];
  oe::WastewaterConfig ww;
  ww.days = days;
  oe::WastewaterGenerator gen(plant, truth, ww, seed);
  return gen.samples();
}

/// Straight-line replication of the pre-workspace neg_log_posterior:
/// fresh allocations, naive loops, the original accumulation order.
double reference_nlp(const ort::GoldsteinEstimator& est,
                     const std::vector<double>& theta,
                     const std::vector<oe::WwSample>& samples, int days) {
  const ort::GoldsteinConfig& cfg = est.config();
  const int k = est.num_knots(days);
  const double log_i0 = theta[static_cast<std::size_t>(k)];
  const double log_sigma = theta[static_cast<std::size_t>(k) + 1];
  if (log_i0 > 25.0 || log_sigma > 5.0 || log_sigma < -7.0) return 1e12;
  const double sigma = std::exp(log_sigma);

  double nlp = 0.0;
  double s0 = cfg.logr0_prior_sd;
  nlp += 0.5 * theta[0] * theta[0] / (s0 * s0);
  double srw = cfg.rw_prior_sd;
  for (int j = 1; j < k; ++j) {
    double d = theta[static_cast<std::size_t>(j)] -
               theta[static_cast<std::size_t>(j - 1)];
    nlp += 0.5 * d * d / (srw * srw);
  }
  double dli = log_i0 - std::log(100.0);
  nlp += 0.5 * dli * dli / (3.0 * 3.0);
  double shn = cfg.sigma_halfnormal_sd;
  nlp += 0.5 * sigma * sigma / (shn * shn) - log_sigma;

  std::vector<double> log_knots(theta.begin(),
                                theta.begin() + static_cast<std::ptrdiff_t>(k));
  std::vector<double> rt = est.knots_to_daily(log_knots, days);
  const std::vector<double>& w = est.generation_interval();
  const int burnin = static_cast<int>(w.size());
  std::vector<double> inc(static_cast<std::size_t>(burnin) + rt.size(),
                          std::exp(log_i0));
  for (std::size_t t = 0; t < rt.size(); ++t) {
    std::size_t idx = static_cast<std::size_t>(burnin) + t;
    inc[idx] = rt[t] * oe::renewal_pressure(inc, idx, w);
  }
  const std::vector<double>& shed = est.shedding_kernel();
  std::vector<double> mu(static_cast<std::size_t>(days), 0.0);
  for (int t = 0; t < days; ++t) {
    double load = 0.0;
    for (std::size_t s = 0; s < shed.size(); ++s) {
      int src = burnin + t - static_cast<int>(s);
      if (src < 0) break;
      load += shed[s] * inc[static_cast<std::size_t>(src)];
    }
    mu[static_cast<std::size_t>(t)] =
        cfg.shedding_scale * load / cfg.flow_liters_per_day;
  }
  for (const oe::WwSample& s : samples) {
    double m = mu[static_cast<std::size_t>(s.day)];
    if (!(m > 0.0) || !(s.concentration > 0.0)) return 1e12;
    double z = (std::log(s.concentration) - std::log(m)) / sigma;
    nlp += 0.5 * z * z + log_sigma;
  }
  return nlp;
}

}  // namespace

// --- satellite: knots_to_daily partial final segment -------------------

TEST(KnotsToDaily, PartialFinalSegmentReachesLastKnot) {
  ort::GoldsteinConfig cfg;  // spacing 7
  ort::GoldsteinEstimator est(cfg);
  // days=16: knots at 0, 7, 14 and a final one pinned to day 15, so the
  // last segment spans a single day.
  ASSERT_EQ(est.num_knots(16), 4);
  std::vector<double> lk = {0.1, -0.2, 0.3, 0.8};
  std::vector<double> rt = est.knots_to_daily(lk, 16);
  // Day 14 sits exactly on knot 2; day 15 must hit knot 3 exactly (the
  // pre-fix code divided by the full spacing and only got 1/7 of the
  // way toward it).
  EXPECT_EQ(rt[14], std::exp(0.3));
  EXPECT_EQ(rt[15], std::exp(0.8));
}

TEST(KnotsToDaily, PartialSegmentInterpolatesOverTrueLength) {
  ort::GoldsteinConfig cfg;
  ort::GoldsteinEstimator est(cfg);
  // days=10: knots at 0, 7, and the final knot pinned to day 9; the
  // last segment is 2 days long, so day 8 is its midpoint.
  ASSERT_EQ(est.num_knots(10), 3);
  std::vector<double> lk = {0.0, 0.4, 1.2};
  std::vector<double> rt = est.knots_to_daily(lk, 10);
  EXPECT_EQ(rt[7], std::exp(0.4));
  EXPECT_DOUBLE_EQ(rt[8], std::exp(0.5 * 0.4 + 0.5 * 1.2));
  EXPECT_EQ(rt[9], std::exp(1.2));
}

TEST(KnotsToDaily, ExactDivisionUnchanged) {
  ort::GoldsteinConfig cfg;
  ort::GoldsteinEstimator est(cfg);
  // days=15: knots at 0, 7, 14 — spacing divides days-1, so every
  // segment uses the full-spacing denominator (pre-fix arithmetic).
  ASSERT_EQ(est.num_knots(15), 3);
  std::vector<double> lk = {0.0, 0.7, -0.7};
  std::vector<double> rt = est.knots_to_daily(lk, 15);
  for (int t = 0; t < 15; ++t) {
    int k = t / 7;
    int k1 = std::min(k + 1, 2);
    double frac = static_cast<double>(t - k * 7) / 7.0;
    EXPECT_EQ(rt[static_cast<std::size_t>(t)],
              std::exp(lk[static_cast<std::size_t>(k)] * (1.0 - frac) +
                       lk[static_cast<std::size_t>(k1)] * frac))
        << "day " << t;
  }
}

// --- the renewal kernels: one recursion and three interleaved -----------

namespace {

/// An incidence array of burnin + days random positive values: the
/// prefix a recursion from any start day reads.
std::vector<double> random_incidence(on::RngStream& rng, int burnin,
                                     int days) {
  std::vector<double> inc(static_cast<std::size_t>(burnin + days));
  for (double& x : inc) x = 20.0 + 80.0 * rng.uniform();
  return inc;
}

std::vector<double> random_rt(on::RngStream& rng, int days) {
  std::vector<double> rt(static_cast<std::size_t>(days));
  for (double& x : rt) x = 0.5 + rng.uniform();
  return rt;
}

}  // namespace

TEST(RenewalKernel, MatchesRenewalPressureBitwise) {
  const std::vector<double> w = oe::default_generation_interval();
  const int wlen = static_cast<int>(w.size());
  const int days = 60;
  on::RngStream rng(5);
  // burnin 0 and 3: the first days' windows run off the start of the
  // incidence array, where the reference sum stops early.
  for (int burnin : {0, 3, wlen}) {
    for (int from : {0, 1, 5, 20}) {
      SCOPED_TRACE(::testing::Message() << "burnin " << burnin << " from "
                                        << from);
      const std::vector<double> rt = random_rt(rng, days);
      std::vector<double> expected = random_incidence(rng, burnin, days);
      std::vector<double> actual = expected;
      for (int t = from; t < days; ++t) {
        const std::size_t idx = static_cast<std::size_t>(burnin + t);
        expected[idx] = rt[static_cast<std::size_t>(t)] *
                        oe::renewal_pressure(expected, idx, w);
      }
      on::simd::renewal_incidence(rt.data(), w.data(), wlen, burnin, from,
                                  days, actual.data());
      osprey::testing::expect_bits(actual, expected, "incidence");
    }
  }
}

TEST(RenewalKernel, InterleavedMatchesThreeSeparateRecursions) {
  const std::vector<double> w = oe::default_generation_interval();
  const int wlen = static_cast<int>(w.size());
  const int days = 218;
  on::RngStream rng(6);
  for (int burnin : {0, wlen}) {
    for (int from : {0, 1, 7, 100, days - 1}) {
      SCOPED_TRACE(::testing::Message() << "burnin " << burnin << " from "
                                        << from);
      std::array<std::vector<double>, 3> rt;
      std::array<std::vector<double>, 3> expected;
      for (std::size_t x = 0; x < 3; ++x) {
        rt[x] = random_rt(rng, days);
        expected[x] = random_incidence(rng, burnin, days);
      }
      std::array<std::vector<double>, 3> actual = expected;
      for (std::size_t x = 0; x < 3; ++x) {
        on::simd::renewal_incidence(rt[x].data(), w.data(), wlen, burnin,
                                    from, days, expected[x].data());
      }
      const double* const rts[3] = {rt[0].data(), rt[1].data(),
                                     rt[2].data()};
      double* const incs[3] = {actual[0].data(), actual[1].data(),
                               actual[2].data()};
      on::simd::renewal_incidence3(rts, w.data(), wlen, burnin, from, days,
                                   incs);
      for (std::size_t x = 0; x < 3; ++x) {
        osprey::testing::expect_bits(actual[x], expected[x], "incidence");
      }
    }
  }
}

// --- tentpole: incremental evaluation is exact algebra ------------------

TEST(LikelihoodWorkspace, ProposeBitIdenticalToFullEvaluation) {
  oe::Plant plant = oe::chicago_plants()[0];
  ort::GoldsteinEstimator est(fast_config(plant));

  struct Series {
    const char* name;
    int days;
    std::vector<oe::WwSample> samples;
  };
  // 57: spacing divides days-1; 60: partial last segment; 218: the
  // benchmark's horizon.
  std::vector<Series> cases = {{"days 57", 57, make_samples(57)},
                               {"days 60", 60, make_samples(60)},
                               {"days 218", 218, make_samples(218)}};
  // A sample on every day 0-6, where the shedding window runs off the
  // start of the incidence array, ahead of the generated series.
  std::vector<oe::WwSample> truncated;
  for (int d = 0; d < 7; ++d) truncated.push_back({d, 2.0e4 + 1.0e3 * d});
  for (const oe::WwSample& s : make_samples(60)) {
    if (s.day >= 7) truncated.push_back(s);
  }
  cases.push_back({"truncated head", 60, truncated});
  // The same samples out of day order: 4-sample blocks mix truncated
  // and full windows, and early days sit after late ones.
  std::vector<oe::WwSample> shuffled = truncated;
  on::RngStream perm(77);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    const std::size_t r = static_cast<std::size_t>(
        perm.uniform() * static_cast<double>(i));
    std::swap(shuffled[i - 1], shuffled[std::min(r, i - 1)]);
  }
  ASSERT_FALSE(std::is_sorted(
      shuffled.begin(), shuffled.end(),
      [](const oe::WwSample& x, const oe::WwSample& y) {
        return x.day < y.day;
      }));
  cases.push_back({"out of order", 60, shuffled});

  for (const Series& c : cases) {
    SCOPED_TRACE(c.name);
    ort::LikelihoodWorkspace ws = est.make_workspace(c.samples, c.days);
    const std::size_t dim = ws.dim();
    const std::size_t k = static_cast<std::size_t>(ws.num_knots());
    std::vector<double> theta(dim, 0.0);
    theta[dim - 2] = std::log(50.0);
    theta[dim - 1] = std::log(0.5);
    ws.commit_full(theta);

    // Every candidate value must equal a from-scratch evaluation of the
    // same theta, bit for bit. EXPECT_EQ on doubles is exact equality.
    auto check = [&](std::size_t j, const char* what) {
      const double incremental = ws.propose(theta, j);
      EXPECT_EQ(incremental, est.neg_log_posterior(theta, c.samples, c.days))
          << what << " component " << j;
      EXPECT_EQ(incremental, reference_nlp(est, theta, c.samples, c.days))
          << what << " component " << j;
    };
    // Move component j to `value` and commit it, whatever it scores.
    auto force = [&](std::size_t j, double value, const char* what) {
      theta[j] = value;
      check(j, what);
      ws.accept();
    };

    // Seeded sweep of single-component perturbations, randomly accepted,
    // with degenerate excursions interleaved: a committed guard state
    // leaves the caches stale, and the way back must be exact.
    on::RngStream rng(4242);
    for (int round = 0; round < 40; ++round) {
      for (std::size_t j = 0; j < dim; ++j) {
        const double old = theta[j];
        theta[j] = old + 0.15 * rng.normal();
        check(j, "sweep");
        if (rng.uniform() < 0.5) {
          ws.accept();
        } else {
          theta[j] = old;
        }
      }
      if (round % 4 != 3) continue;
      const std::vector<double> saved = theta;
      switch (round % 3) {
        case 0:  // theta-bounds guard, before any series is computed
          force(dim - 1, 6.0, "sigma guard");
          break;
        case 1:  // I0 underflows to 0: mu = 0 at every sample
          force(dim - 2, -800.0, "I0 underflow");
          break;
        default: {  // R overflows on one window, then 0 * inf = NaN
          const std::size_t j = static_cast<std::size_t>(round) % (k - 1);
          force(j, 1e4, "R overflow");
          force(j + 1, -1e4, "R overflow then underflow");
          break;
        }
      }
      EXPECT_TRUE(ws.committed_degenerate()) << "round " << round;
      for (std::size_t j = 0; j < dim; ++j) {
        if (theta[j] != saved[j]) force(j, saved[j], "recovery");
      }
      EXPECT_FALSE(ws.committed_degenerate()) << "round " << round;
    }

    // Paired proposals: A moves knot j, then knot j+1's move is scored
    // under both of A's outcomes, B (A rejected) on a copy of the
    // workspace and C (A accepted) on the other; `ws` follows
    // `take_a` and `take_second`. Returns the A, B and C values.
    auto pair = [&](std::size_t j, double old, double next, bool take_a,
                    bool take_second, const char* what) {
      std::array<double, 3> v{};
      const double moved = theta[j];
      const double old_next = theta[j + 1];
      v[0] = ws.propose_pair(theta, j, next);
      EXPECT_EQ(v[0], reference_nlp(est, theta, c.samples, c.days))
          << what << " A at " << j;
      auto second = [&](ort::LikelihoodWorkspace& w, bool a_accepted) {
        if (a_accepted) {
          w.accept();
          EXPECT_EQ(w.committed_degenerate(), v[0] == 1e12) << what;
        }
        theta[j] = a_accepted ? moved : old;
        theta[j + 1] = next;
        const double value = w.propose(theta, j + 1);
        EXPECT_EQ(value, reference_nlp(est, theta, c.samples, c.days))
            << what << (a_accepted ? " C" : " B") << " at " << j;
        v[a_accepted ? 2 : 1] = value;
      };
      ort::LikelihoodWorkspace other = ws;
      second(other, !take_a);
      second(ws, take_a);
      if (take_second) {
        ws.accept();
      } else {
        theta[j + 1] = old_next;
      }
      return v;
    };

    // The sweep in pairs, as run_chain takes it: knot pairs speculate,
    // and a pair reaching log I0 or log sigma is a plain proposal.
    on::RngStream pair_rng(4343);
    for (int round = 0; round < 20; ++round) {
      for (std::size_t j = 0; j + 1 < dim; j += 2) {
        const double old = theta[j];
        const double next = theta[j + 1] + 0.15 * pair_rng.normal();
        theta[j] = old + 0.15 * pair_rng.normal();
        const bool take_a = pair_rng.uniform() < 0.5;
        pair(j, old, next, take_a, pair_rng.uniform() < 0.5, "paired sweep");
      }
    }
    EXPECT_FALSE(ws.committed_degenerate());

    // Knot j+1 moved to another value than the pair prepared: a plain
    // evaluation, still exact.
    {
      const double old = theta[2];
      const double next = theta[3] + 0.2;
      theta[2] = old + 0.1;
      EXPECT_EQ(ws.propose_pair(theta, 2, next),
                reference_nlp(est, theta, c.samples, c.days));
      ws.accept();
      theta[3] = next + 0.1;
      EXPECT_EQ(ws.propose(theta, 3),
                reference_nlp(est, theta, c.samples, c.days));
      ws.accept();
    }

    // Pairs around degenerate states on knots 0 and 1. A knot at -1e4
    // zeroes R on its window; both knots there zero all incidence from
    // day 0 on, so mu = 0 at every later sample (the guard value).
    const std::vector<double> base = theta;
    const double zero = -1e4;
    const double guard = 1e12;
    // C degenerate, A and B finite.
    theta[0] = zero;
    std::array<double, 3> v = pair(0, base[0], zero, false, false,
                                   "C degenerate");
    EXPECT_LT(v[0], guard);
    EXPECT_LT(v[1], guard);
    EXPECT_EQ(v[2], guard);
    // B degenerate, from a finite committed state with knot 0 at zero;
    // C = (base, zero) is adopted.
    force(0, zero, "knot 0 zero");
    EXPECT_FALSE(ws.committed_degenerate());
    theta[0] = base[0];
    v = pair(0, zero, zero, true, true, "B degenerate");
    EXPECT_LT(v[0], guard);
    EXPECT_EQ(v[1], guard);
    EXPECT_LT(v[2], guard);
    EXPECT_FALSE(ws.committed_degenerate());
    // A degenerate and accepted, then C = (zero, base) recovers.
    theta[0] = zero;
    v = pair(0, base[0], base[1], true, true, "A degenerate");
    EXPECT_EQ(v[0], guard);
    EXPECT_LT(v[1], guard);
    EXPECT_LT(v[2], guard);
    EXPECT_FALSE(ws.committed_degenerate());
    // A pair proposed from a degenerate committed state (zero, zero)
    // is a plain full evaluation; C = base recovers.
    force(1, zero, "both knots zero");
    EXPECT_TRUE(ws.committed_degenerate());
    theta[0] = base[0];
    v = pair(0, zero, base[1], true, true, "from degenerate");
    EXPECT_LT(v[0], guard);
    EXPECT_LT(v[1], guard);
    EXPECT_LT(v[2], guard);
    EXPECT_FALSE(ws.committed_degenerate());
    EXPECT_EQ(theta, base);
  }
}

TEST(LikelihoodWorkspace, DegenerateStatesFallBackExactly) {
  const int days = 40;
  oe::Plant plant = oe::chicago_plants()[0];
  ort::GoldsteinEstimator est(fast_config(plant));
  std::vector<oe::WwSample> samples = make_samples(days);

  ort::LikelihoodWorkspace ws = est.make_workspace(samples, days);
  const std::size_t dim = ws.dim();
  std::vector<double> theta(dim, 0.0);
  theta[dim - 2] = std::log(50.0);
  theta[dim - 1] = std::log(0.5);
  ws.commit_full(theta);

  // Drive log sigma past the guard: the proposal must return the 1e12
  // guard value, and ACCEPTING it must not poison later evaluations.
  const double old_sigma = theta[dim - 1];
  theta[dim - 1] = 6.0;
  EXPECT_EQ(ws.propose(theta, dim - 1), 1e12);
  ws.accept();
  EXPECT_TRUE(ws.committed_degenerate());

  // Recover: from the degenerate state every proposal is a full
  // evaluation and must still match the reference bitwise.
  theta[dim - 1] = old_sigma;
  const double back = ws.propose(theta, dim - 1);
  EXPECT_EQ(back, reference_nlp(est, theta, samples, days));
  ws.accept();
  EXPECT_FALSE(ws.committed_degenerate());

  // And the workspace is exact again on the incremental path.
  theta[2] += 0.2;
  EXPECT_EQ(ws.propose(theta, 2), reference_nlp(est, theta, samples, days));
}

TEST(Goldstein, FullRefitBitIdenticalToReferenceChain) {
  // Replicate the original (pre-workspace) estimator loop with naive
  // full evaluations and compare every posterior draw bit-for-bit.
  // days=57: spacing divides days-1, so this is also bit-identical to
  // the pre-fix knots_to_daily arithmetic.
  const int days = 57;
  oe::Plant plant = oe::chicago_plants()[0];
  ort::GoldsteinConfig cfg = fast_config(plant);
  cfg.iterations = 300;
  cfg.burnin = 150;
  cfg.thin = 4;
  ort::GoldsteinEstimator est(cfg);
  std::vector<oe::WwSample> samples = make_samples(days);

  ort::RtPosterior posterior = est.estimate(samples, days, cfg.seed);

  const int k = est.num_knots(days);
  const std::size_t dim = static_cast<std::size_t>(k) + 2;
  std::vector<double> conc;
  for (const auto& s : samples) conc.push_back(s.concentration);
  double mean_c = std::max(on::mean(conc), 1e-12);
  double i0_guess =
      std::max(mean_c * cfg.flow_liters_per_day / cfg.shedding_scale, 1.0);
  std::vector<double> theta(dim, 0.0);
  theta[static_cast<std::size_t>(k)] = std::log(i0_guess);
  theta[static_cast<std::size_t>(k) + 1] = std::log(0.5);

  on::RngStream rng(cfg.seed);
  double current = reference_nlp(est, theta, samples, days);
  std::vector<double> step(dim, 0.08);
  std::vector<std::size_t> accepts(dim, 0);
  std::vector<std::size_t> proposals(dim, 0);
  const int span = cfg.iterations - cfg.burnin;
  const int n_draws = (span + cfg.thin - 1) / cfg.thin;
  ASSERT_EQ(posterior.n_draws(), static_cast<std::size_t>(n_draws));
  ASSERT_EQ(posterior.days(), static_cast<std::size_t>(days));

  std::size_t stored = 0;
  for (int iter = 0; iter < cfg.iterations; ++iter) {
    for (std::size_t j = 0; j < dim; ++j) {
      double old = theta[j];
      theta[j] = old + step[j] * rng.normal();
      double cand = reference_nlp(est, theta, samples, days);
      ++proposals[j];
      if (std::log(rng.uniform() + 1e-300) < current - cand) {
        current = cand;
        ++accepts[j];
      } else {
        theta[j] = old;
      }
    }
    if (iter < cfg.burnin && (iter + 1) % 50 == 0) {
      for (std::size_t j = 0; j < dim; ++j) {
        double rate = static_cast<double>(accepts[j]) /
                      static_cast<double>(proposals[j]);
        step[j] *= std::exp(rate - 0.44);
        step[j] = std::clamp(step[j], 1e-4, 2.0);
        accepts[j] = 0;
        proposals[j] = 0;
      }
    }
    if (iter >= cfg.burnin && (iter - cfg.burnin) % cfg.thin == 0) {
      std::vector<double> log_knots(
          theta.begin(), theta.begin() + static_cast<std::ptrdiff_t>(k));
      std::vector<double> rt = est.knots_to_daily(log_knots, days);
      for (int t = 0; t < days; ++t) {
        EXPECT_EQ(posterior.draws(stored, static_cast<std::size_t>(t)),
                  rt[static_cast<std::size_t>(t)])
            << "draw " << stored << " day " << t;
      }
      ++stored;
    }
  }
  EXPECT_EQ(stored, static_cast<std::size_t>(n_draws));
}

// --- warm-start online refits -------------------------------------------

TEST(GoldsteinOnline, ChainStateCapturesAndExtends) {
  oe::Plant plant = oe::chicago_plants()[0];
  ort::GoldsteinConfig cfg = fast_config(plant);
  ort::GoldsteinEstimator est(cfg);

  std::vector<oe::WwSample> samples = make_samples(74);
  std::vector<oe::WwSample> early;
  for (const auto& s : samples) {
    if (s.day < 60) early.push_back(s);
  }

  ort::GoldsteinChainState state;
  EXPECT_FALSE(state.valid());
  est.estimate(early, 60, cfg.seed, &state);
  EXPECT_TRUE(state.valid());
  EXPECT_EQ(state.days, 60);
  EXPECT_EQ(state.updates, 0u);
  EXPECT_EQ(state.theta.size(),
            static_cast<std::size_t>(est.num_knots(60)) + 2);
  EXPECT_EQ(state.step.size(), state.theta.size());

  ort::RtPosterior update = est.estimate_update(samples, 74, 7, state);
  EXPECT_EQ(state.days, 74);
  EXPECT_EQ(state.updates, 1u);
  EXPECT_EQ(state.theta.size(),
            static_cast<std::size_t>(est.num_knots(74)) + 2);
  const int span = cfg.update_iterations - cfg.update_burnin;
  EXPECT_EQ(update.n_draws(),
            static_cast<std::size_t>((span + cfg.thin - 1) / cfg.thin));
  EXPECT_EQ(update.days(), 74u);

  // A second update on the same horizon keeps advancing the lineage.
  est.estimate_update(samples, 74, 8, state);
  EXPECT_EQ(state.updates, 2u);

  // The horizon may never shrink.
  EXPECT_THROW(est.estimate_update(early, 60, 9, state),
               osprey::util::InvalidArgument);
}

TEST(GoldsteinOnline, WarmUpdateAccuracyWithinToleranceOfCold) {
  // Figure-2-style scenario: fit through day 90, then one more
  // published sample arrives. The capped warm refit must stay close to
  // the cold full refit in truth-tracking accuracy.
  oe::Plant plant = oe::chicago_plants()[0];
  oe::RtTruthParams truth_params = oe::chicago_truths()[0];
  oe::WastewaterConfig ww;
  ww.days = 120;
  oe::WastewaterGenerator gen(plant, truth_params, ww, 100);

  ort::GoldsteinConfig cfg = fast_config(plant);
  ort::GoldsteinEstimator est(cfg);

  std::vector<oe::WwSample> history = gen.samples_through(90);
  int new_day = -1;
  for (const auto& s : gen.samples()) {
    if (s.day > 90) {
      new_day = s.day;
      break;
    }
  }
  ASSERT_GT(new_day, 90);
  const int days = new_day + 1;
  std::vector<oe::WwSample> with_new = gen.samples_through(new_day);

  ort::GoldsteinChainState state;
  est.estimate(history, 91, cfg.seed, &state);
  ort::RtPosterior warm = est.estimate_update(with_new, days, 1234, state);
  ort::RtPosterior cold = est.estimate(with_new, days, cfg.seed);

  std::vector<double> truth = gen.true_rt();
  truth.resize(static_cast<std::size_t>(days));
  auto mid = [](const std::vector<double>& v) {
    return std::vector<double>(v.begin() + 10, v.end() - 10);
  };
  ort::RtSeries warm_series = warm.summarize();
  ort::RtSeries cold_series = cold.summarize();
  const double warm_rmse = on::rmse(mid(warm_series.median), mid(truth));
  const double cold_rmse = on::rmse(mid(cold_series.median), mid(truth));
  EXPECT_LT(warm_rmse, cold_rmse + 0.05);
  EXPECT_LT(warm_rmse, 0.25);
  EXPECT_GT(warm_series.coverage(truth), 0.7);
}

TEST(Goldstein, RejectsUnobservableConcentrations) {
  // A zero sample would pin every state to the 1e12 guard, where every
  // proposal is accepted and R(t) draws run off unchecked.
  oe::Plant plant = oe::chicago_plants()[0];
  ort::GoldsteinEstimator est(fast_config(plant));
  const int days = 40;
  std::vector<oe::WwSample> samples = make_samples(days);
  ort::GoldsteinChainState state;
  est.estimate(samples, days, 7, &state);
  ASSERT_TRUE(state.valid());

  for (double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<oe::WwSample> with_bad = samples;
    with_bad[with_bad.size() / 2].concentration = bad;
    EXPECT_THROW(est.estimate(with_bad, days),
                 osprey::util::InvalidArgument)
        << bad;
    const ort::GoldsteinChainState before = state;
    EXPECT_THROW(est.estimate_update(with_bad, days, 8, state),
                 osprey::util::InvalidArgument)
        << bad;
    EXPECT_EQ(state.theta, before.theta);
    EXPECT_EQ(state.step, before.step);
    EXPECT_EQ(state.updates, before.updates);
  }
}

TEST(Goldstein, PerPhaseAcceptanceRates) {
  oe::Plant plant = oe::chicago_plants()[0];
  ort::GoldsteinConfig cfg = fast_config(plant);
  ort::GoldsteinEstimator est(cfg);
  std::vector<oe::WwSample> samples = make_samples(60);
  ort::RtPosterior posterior = est.estimate(samples, 60);

  EXPECT_GT(posterior.acceptance_rate_burnin, 0.0);
  EXPECT_LT(posterior.acceptance_rate_burnin, 1.0);
  EXPECT_GT(posterior.acceptance_rate_sampling, 0.0);
  EXPECT_LT(posterior.acceptance_rate_sampling, 1.0);
  // The overall rate is a proposal-weighted mean of the two phases.
  const double lo = std::min(posterior.acceptance_rate_burnin,
                             posterior.acceptance_rate_sampling);
  const double hi = std::max(posterior.acceptance_rate_burnin,
                             posterior.acceptance_rate_sampling);
  EXPECT_GE(posterior.acceptance_rate, lo - 1e-12);
  EXPECT_LE(posterior.acceptance_rate, hi + 1e-12);
}

// --- the warm chain the wastewater use case runs, pinned to the bit -----

TEST(RtPinned, WarmUpdateDraws) {
  // BM_GoldsteinWarmUpdate's setup: a chain captured at day 211 (seed
  // 11) and extended to 218 days (seed 12) with the use case's
  // 400-sweep / 160-burn-in update settings.
  const int days = 218;
  oe::Plant plant = oe::chicago_plants()[0];
  oe::WastewaterConfig ww;
  ww.days = days;
  oe::WastewaterGenerator gen(plant, oe::chicago_truths()[0], ww, 3);
  std::vector<oe::WwSample> week_before;
  for (const oe::WwSample& s : gen.samples()) {
    if (s.day < days - 7) week_before.push_back(s);
  }
  const osprey::core::WwUseCaseConfig usecase;
  ort::GoldsteinConfig cfg = usecase.goldstein;
  cfg.flow_liters_per_day = plant.avg_flow_mgd * 3.785e6;
  ort::GoldsteinEstimator est(cfg);
  ort::GoldsteinChainState chain;
  est.estimate(week_before, week_before.back().day + 1, 11, &chain);
  ort::RtPosterior update = est.estimate_update(gen.samples(), days, 12, chain);
  ASSERT_EQ(update.n_draws(), 60u);
  ASSERT_EQ(update.days(), static_cast<std::size_t>(days));

  std::vector<double> cells;
  for (std::size_t draw : {0u, 29u, 59u}) {
    for (std::size_t day : {0u, 50u, 109u, 180u, 211u, 217u}) {
      cells.push_back(update.draws(draw, day));
    }
  }
  const std::vector<double> rates = {update.acceptance_rate,
                                     update.acceptance_rate_burnin,
                                     update.acceptance_rate_sampling};
  osprey::testing::dump_artifacts(
      "rt_pinned_warm_update",
      {{"draws.txt", osprey::testing::format_rows({cells, rates})}});
  osprey::testing::expect_bits(
      cells,
      {
        0x1.3aa449510229dp+0, 0x1.370fe2f84241bp+0, 0x1.374e77e5aed9ep-1,
        0x1.db0a8cd1fdc95p-1, 0x1.584a2572ba981p-1, 0x1.505ba9ee45c77p-1,
        0x1.0f38a86ff1eeep+0, 0x1.5137fdbb246aap+0, 0x1.5aa8a4fc723a9p-1,
        0x1.f7a3dd18b7afap-1, 0x1.e65d050fd227fp-2, 0x1.06523d0e40bc2p-1,
        0x1.4c403bf5705bap+0, 0x1.4b4be79321072p+0, 0x1.2a71d9936e59fp-1,
        0x1.01224b33778d8p+0, 0x1.4098b604507e1p-1, 0x1.7454bb60b6598p-1,
      },
      "cells");
  osprey::testing::expect_bits(
      rates,
      {
        0x1.bcc3298ff65ccp-2, 0x1.b3c3c3c3c3c3cp-2, 0x1.c2c2c2c2c2c2cp-2,
      },
      "rates");
}
