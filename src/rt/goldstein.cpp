#include "rt/goldstein.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "epi/kernels.hpp"
#include "num/rng.hpp"
#include "num/simd.hpp"
#include "num/stats.hpp"
#include "rt/likelihood_ws.hpp"
#include "util/error.hpp"

namespace osprey::rt {

using osprey::num::RngStream;

namespace {

/// The observation model is lognormal: a zero, negative or non-finite
/// concentration has no likelihood, and would pin every state to the
/// guard value, where every proposal is accepted.
void require_observable(const std::vector<epi::WwSample>& samples) {
  for (const epi::WwSample& s : samples) {
    OSPREY_REQUIRE(std::isfinite(s.concentration) && s.concentration > 0.0,
                   "sample concentration on day " + std::to_string(s.day) +
                       " must be positive and finite");
  }
}

}  // namespace

GoldsteinEstimator::GoldsteinEstimator(GoldsteinConfig config)
    : config_(std::move(config)),
      gen_interval_(epi::default_generation_interval()),
      shedding_(epi::default_shedding_kernel()) {
  OSPREY_REQUIRE(config_.knot_spacing_days >= 1, "bad knot spacing");
  OSPREY_REQUIRE(config_.iterations > config_.burnin, "burnin >= iterations");
  OSPREY_REQUIRE(config_.thin >= 1, "thin must be >= 1");
  OSPREY_REQUIRE(config_.update_burnin >= 0, "bad update burnin");
  OSPREY_REQUIRE(config_.update_iterations > config_.update_burnin,
                 "update_burnin >= update_iterations");
  OSPREY_REQUIRE(config_.flow_liters_per_day > 0, "bad flow");
  OSPREY_REQUIRE(config_.shedding_scale > 0, "bad shedding scale");
}

int GoldsteinEstimator::num_knots(int days) const {
  OSPREY_REQUIRE(days >= 2, "need at least 2 days");
  // Knots at 0, spacing, 2*spacing, ... plus one at/after the last day.
  int k = (days - 1) / config_.knot_spacing_days + 1;
  if ((k - 1) * config_.knot_spacing_days < days - 1) ++k;
  return k;
}

std::vector<double> GoldsteinEstimator::knots_to_daily(
    const std::vector<double>& log_knots, int days) const {
  std::vector<double> rt(static_cast<std::size_t>(days));
  num::simd::interp_log_knots_exp(log_knots.data(),
                                  static_cast<int>(log_knots.size()),
                                  config_.knot_spacing_days, days, 0, days,
                                  rt.data());
  return rt;
}

LikelihoodWorkspace GoldsteinEstimator::make_workspace(
    const std::vector<epi::WwSample>& samples, int days) const {
  return LikelihoodWorkspace(config_, gen_interval_, shedding_, samples,
                             days);
}

double GoldsteinEstimator::neg_log_posterior(
    const std::vector<double>& theta,
    const std::vector<epi::WwSample>& samples, int days) const {
  const int k = num_knots(days);
  OSPREY_REQUIRE(theta.size() == static_cast<std::size_t>(k) + 2,
                 "theta size mismatch");
  LikelihoodWorkspace ws = make_workspace(samples, days);
  return ws.commit_full(theta);
}

void GoldsteinEstimator::run_chain(LikelihoodWorkspace& ws,
                                   std::vector<double>& theta,
                                   std::vector<double>& step,
                                   std::uint64_t seed, int iterations,
                                   int burnin, int days,
                                   RtPosterior& posterior) const {
  const std::size_t dim = theta.size();
  const int k = ws.num_knots();
  OSPREY_REQUIRE(dim == ws.dim() && dim == step.size(),
                 "chain dimension mismatch");

  RngStream rng(seed);
  double current = ws.commit_full(theta);

  std::vector<std::size_t> accepts(dim, 0);
  std::vector<std::size_t> proposals(dim, 0);
  const int adapt_window = 50;

  // Draws land at offsets 0, thin, 2*thin, ... within the post-burn-in
  // span, so the count is the CEILING of span/thin — floor division
  // would silently drop the final thinned draw whenever thin does not
  // divide the span.
  const int span = iterations - burnin;
  const int n_draws = (span + config_.thin - 1) / config_.thin;
  posterior.draws = osprey::num::Matrix(static_cast<std::size_t>(n_draws),
                                        static_cast<std::size_t>(days));

  std::vector<double> rt_buf(static_cast<std::size_t>(days));
  std::size_t stored = 0;
  std::uint64_t burn_acc = 0;
  std::uint64_t burn_prop = 0;
  std::uint64_t samp_acc = 0;
  std::uint64_t samp_prop = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    const bool in_burnin = iter < burnin;
    // Component-wise Metropolis sweep; the workspace recomputes only
    // the suffix the perturbed component can influence.
    for (std::size_t j = 0; j < dim; ++j) {
      double old = theta[j];
      theta[j] = old + step[j] * rng.normal();
      double cand = ws.propose(theta, j);
      ++proposals[j];
      if (in_burnin) {
        ++burn_prop;
      } else {
        ++samp_prop;
      }
      if (std::log(rng.uniform() + 1e-300) < current - cand) {
        current = cand;
        ws.accept();
        ++accepts[j];
        if (in_burnin) {
          ++burn_acc;
        } else {
          ++samp_acc;
        }
      } else {
        theta[j] = old;
      }
    }
    // Adapt step sizes toward ~44% acceptance during burn-in.
    if (in_burnin && (iter + 1) % adapt_window == 0) {
      for (std::size_t j = 0; j < dim; ++j) {
        double rate = static_cast<double>(accepts[j]) /
                      static_cast<double>(proposals[j]);
        step[j] *= std::exp(rate - 0.44);
        step[j] = std::clamp(step[j], 1e-4, 2.0);
        accepts[j] = 0;
        proposals[j] = 0;
      }
    }
    if (iter >= burnin && (iter - burnin) % config_.thin == 0) {
      // Draws always go through the interpolation kernel directly: the
      // workspace R cache is stale whenever the committed state is
      // degenerate, but theta itself is always well-defined.
      num::simd::interp_log_knots_exp(theta.data(), k,
                                      config_.knot_spacing_days, days, 0, days,
                                      rt_buf.data());
      for (int t = 0; t < days; ++t) {
        posterior.draws(stored, static_cast<std::size_t>(t)) =
            rt_buf[static_cast<std::size_t>(t)];
      }
      ++stored;
    }
  }
  OSPREY_CHECK(stored == static_cast<std::size_t>(n_draws),
               "thinned draw count mismatch");

  const std::uint64_t total_acc = burn_acc + samp_acc;
  const std::uint64_t total_prop = burn_prop + samp_prop;
  auto ratio = [](std::uint64_t a, std::uint64_t p) {
    return p == 0 ? 0.0
                  : static_cast<double>(a) / static_cast<double>(p);
  };
  posterior.acceptance_rate = ratio(total_acc, total_prop);
  posterior.acceptance_rate_burnin = ratio(burn_acc, burn_prop);
  posterior.acceptance_rate_sampling = ratio(samp_acc, samp_prop);
}

RtPosterior GoldsteinEstimator::estimate(
    const std::vector<epi::WwSample>& samples, int days) const {
  return estimate(samples, days, config_.seed);
}

RtPosterior GoldsteinEstimator::estimate(
    const std::vector<epi::WwSample>& samples, int days, std::uint64_t seed,
    GoldsteinChainState* out_state) const {
  OSPREY_REQUIRE(samples.size() >= 4, "need at least 4 samples");
  require_observable(samples);
  const int k = num_knots(days);
  const std::size_t dim = static_cast<std::size_t>(k) + 2;

  // Initialize: flat R(t)=1, incidence level backed out of the mean
  // observed concentration, moderate noise.
  std::vector<double> conc;
  conc.reserve(samples.size());
  for (const auto& s : samples) conc.push_back(s.concentration);
  double mean_c = std::max(osprey::num::mean(conc), 1e-12);
  double i0_guess =
      std::max(mean_c * config_.flow_liters_per_day / config_.shedding_scale,
               1.0);

  std::vector<double> theta(dim, 0.0);
  theta[static_cast<std::size_t>(k)] = std::log(i0_guess);
  theta[static_cast<std::size_t>(k) + 1] = std::log(0.5);
  std::vector<double> step(dim, 0.08);

  LikelihoodWorkspace ws = make_workspace(samples, days);
  RtPosterior posterior;
  run_chain(ws, theta, step, seed, config_.iterations, config_.burnin, days,
            posterior);

  if (out_state != nullptr) {
    out_state->theta = std::move(theta);
    out_state->step = std::move(step);
    out_state->days = days;
    out_state->updates = 0;
  }
  return posterior;
}

RtPosterior GoldsteinEstimator::estimate_update(
    const std::vector<epi::WwSample>& samples, int days, std::uint64_t seed,
    GoldsteinChainState& state) const {
  OSPREY_REQUIRE(state.valid(), "invalid chain state");
  OSPREY_REQUIRE(days >= state.days, "online horizon cannot shrink");
  OSPREY_REQUIRE(samples.size() >= 4, "need at least 4 samples");
  require_observable(samples);
  const int k = num_knots(days);
  const int k_old = static_cast<int>(state.theta.size()) - 2;
  OSPREY_REQUIRE(k >= k_old, "chain state has more knots than horizon");

  // Extend the parameter vector over the newly observed days by
  // replicating the last knot — the mean of the random-walk prior
  // increment — and give new knots the last knot's adapted step.
  std::vector<double> theta = state.theta;
  std::vector<double> step = state.step;
  theta.insert(theta.begin() + k_old, static_cast<std::size_t>(k - k_old),
               theta[static_cast<std::size_t>(k_old) - 1]);
  step.insert(step.begin() + k_old, static_cast<std::size_t>(k - k_old),
              step[static_cast<std::size_t>(k_old) - 1]);

  LikelihoodWorkspace ws = make_workspace(samples, days);
  RtPosterior posterior;
  run_chain(ws, theta, step, seed, config_.update_iterations,
            config_.update_burnin, days, posterior);

  state.theta = std::move(theta);
  state.step = std::move(step);
  state.days = days;
  ++state.updates;
  return posterior;
}

}  // namespace osprey::rt
