#include "rt/likelihood_ws.hpp"

#include <algorithm>
#include <cmath>

#include "num/simd.hpp"
#include "util/error.hpp"

namespace osprey::rt {

namespace {
/// The reference guard value for out-of-support parameter vectors.
constexpr double kGuard = 1e12;
}  // namespace

LikelihoodWorkspace::LikelihoodWorkspace(
    const GoldsteinConfig& config, std::vector<double> gen_interval,
    std::vector<double> shedding, const std::vector<epi::WwSample>& samples,
    int days)
    : config_(config),
      w_(std::move(gen_interval)),
      shed_(std::move(shedding)),
      days_(days) {
  OSPREY_REQUIRE(days_ >= 2, "need at least 2 days");
  const int spacing = config_.knot_spacing_days;
  k_ = (days_ - 1) / spacing + 1;
  if ((k_ - 1) * spacing < days_ - 1) ++k_;
  burnin_ = static_cast<int>(w_.size());

  sample_day_.reserve(samples.size());
  sample_log_c_.reserve(samples.size());
  sample_pos_c_.reserve(samples.size());
  for (const epi::WwSample& s : samples) {
    OSPREY_REQUIRE(s.day >= 0 && s.day < days_, "sample outside horizon");
    sample_day_.push_back(s.day);
    const bool pos = s.concentration > 0.0;
    sample_pos_c_.push_back(pos ? 1 : 0);
    sample_log_c_.push_back(pos ? std::log(s.concentration) : 0.0);
  }

  const std::size_t nd = static_cast<std::size_t>(days_);
  const std::size_t ni = static_cast<std::size_t>(burnin_) + nd;
  const std::size_t ns = samples.size();
  theta_.assign(dim(), 0.0);
  rt_.assign(nd, 0.0);
  inc_.assign(ni, 0.0);
  log_mu_.assign(ns, 0.0);
  contrib_.assign(ns, 0.0);
  cand_theta_.assign(dim(), 0.0);
  cand_rt_.assign(nd, 0.0);
  cand_inc_.assign(ni, 0.0);
  cand_mu_.assign(ns, 0.0);
  cand_log_mu_.assign(ns, 0.0);
  cand_contrib_.assign(ns, 0.0);
}

LikelihoodWorkspace::Plan LikelihoodWorkspace::full_plan() const {
  Plan p;
  p.rt_to = days_;
  return p;
}

std::size_t LikelihoodWorkspace::first_sample_at(int day) const {
  std::size_t i = 0;
  while (i < sample_day_.size() && sample_day_[i] < day) ++i;
  return i;
}

LikelihoodWorkspace::Plan LikelihoodWorkspace::plan_for(std::size_t j) const {
  if (degenerate_) {
    // Caches are stale (or nothing was committed yet): full evaluation.
    return full_plan();
  }
  Plan p;
  const std::size_t kidx = static_cast<std::size_t>(k_);
  if (j < kidx) {
    // Knot j moves daily R only strictly between its neighbours, on
    // [(j-1)*spacing + 1, (j+1)*spacing) (from day 0 for the first
    // knot, through the horizon for the last two knots when the final
    // one is pinned to day days-1); the neighbours' own days weigh it
    // by exactly 0. Incidence and samples change from the window on.
    const int spacing = config_.knot_spacing_days;
    const int jj = static_cast<int>(j);
    int tf = j == 0 ? 0 : (jj - 1) * spacing + 1;
    tf = std::min(tf, days_);
    p.rt_from = tf;
    p.rt_to = std::min((jj + 1) * spacing, days_);
    p.inc_from = tf;
    p.sample_from = first_sample_at(tf);
  } else if (j == kidx) {
    // log I0 re-seeds the incidence recursion; daily R is reusable.
    p.inc_from = 0;
    p.sample_from = 0;
  } else {
    // log sigma rescales the observation terms only.
    p.inc_from = days_;
    p.sample_from = 0;
    p.sigma_only = true;
  }
  return p;
}

double LikelihoodWorkspace::eval(const std::vector<double>& theta,
                                 const Plan& plan) {
  const std::size_t kidx = static_cast<std::size_t>(k_);
  cand_theta_ = theta;
  cand_plan_ = plan;
  cand_degenerate_ = false;

  const double log_i0 = theta[kidx];
  const double log_sigma = theta[kidx + 1];
  if (log_i0 > 25.0 || log_sigma > 5.0 || log_sigma < -7.0) {
    cand_degenerate_ = true;
    cand_value_ = kGuard;
    return kGuard;
  }
  const double sigma = std::exp(log_sigma);

  // Priors, in the reference accumulation order (they touch every
  // component, so they are always recomputed — k+2 terms, negligible).
  double nlp = 0.0;
  const double s0 = config_.logr0_prior_sd;
  nlp += 0.5 * theta[0] * theta[0] / (s0 * s0);
  const double srw = config_.rw_prior_sd;
  for (int j = 1; j < k_; ++j) {
    double d = theta[static_cast<std::size_t>(j)] -
               theta[static_cast<std::size_t>(j - 1)];
    nlp += 0.5 * d * d / (srw * srw);
  }
  double dli = log_i0 - std::log(100.0);
  nlp += 0.5 * dli * dli / (3.0 * 3.0);
  const double shn = config_.sigma_halfnormal_sd;
  nlp += 0.5 * sigma * sigma / (shn * shn) - log_sigma;

  // Changed series through the shared SoA kernels.
  const double* rt = rt_.data();
  if (plan.rt_from < plan.rt_to) {
    // The interpolation is element-local: only the window moves. Undo
    // the previous candidate's window first, so that cand_rt_ is the
    // committed R everywhere else and the recursion can read it whole.
    std::copy(rt_.begin() + cand_rt_from_, rt_.begin() + cand_rt_to_,
              cand_rt_.begin() + cand_rt_from_);
    num::simd::interp_log_knots_exp(theta.data(), k_,
                                    config_.knot_spacing_days, days_,
                                    plan.rt_from, plan.rt_to,
                                    cand_rt_.data());
    cand_rt_from_ = plan.rt_from;
    cand_rt_to_ = plan.rt_to;
    rt = cand_rt_.data();
  }
  const std::size_t n = sample_day_.size();
  if (plan.inc_from < days_) {
    if (plan.inc_from == 0) {
      // Reference semantics: the burn-in prefix of the incidence array
      // holds the initial level I0.
      std::fill(cand_inc_.begin(), cand_inc_.begin() + burnin_,
                std::exp(log_i0));
    } else {
      // The recursion reads up to max(|w|, |shed|) days back across the
      // restart point; copy the whole committed prefix (cheap, SoA).
      std::copy(inc_.begin(),
                inc_.begin() + burnin_ + plan.inc_from, cand_inc_.begin());
    }
    num::simd::renewal_incidence(rt, w_.data(), static_cast<int>(w_.size()),
                                 burnin_, plan.inc_from, days_,
                                 cand_inc_.data());
    // Expected concentration only where a sample reads it.
    num::simd::shedding_convolve(cand_inc_.data(), shed_.data(),
                                 static_cast<int>(shed_.size()), burnin_,
                                 config_.shedding_scale,
                                 config_.flow_liters_per_day,
                                 sample_day_.data(), plan.sample_from, n,
                                 cand_mu_.data());
  }

  // Observation terms.
  if (plan.sigma_only) {
    // Cached log(mu) is exact; only the scale and the additive
    // log sigma change. The committed state passed every positivity
    // guard, and mu is untouched, so no re-check is needed.
    for (std::size_t i = 0; i < n; ++i) {
      const double z = (sample_log_c_[i] - log_mu_[i]) / sigma;
      cand_contrib_[i] = 0.5 * z * z + log_sigma;
    }
  } else if (!num::simd::lognormal_terms(
                 cand_mu_.data(), sample_log_c_.data(), sample_pos_c_.data(),
                 plan.sample_from, n, sigma, log_sigma, cand_log_mu_.data(),
                 cand_contrib_.data())) {
    cand_degenerate_ = true;
    cand_value_ = kGuard;
    return kGuard;
  }
  for (std::size_t i = 0; i < plan.sample_from; ++i) nlp += contrib_[i];
  for (std::size_t i = plan.sample_from; i < n; ++i) nlp += cand_contrib_[i];

  cand_value_ = nlp;
  return nlp;
}

double LikelihoodWorkspace::commit_full(const std::vector<double>& theta) {
  OSPREY_REQUIRE(theta.size() == dim(), "theta size mismatch");
  eval(theta, full_plan());
  accept();
  return value_;
}

double LikelihoodWorkspace::propose(const std::vector<double>& theta,
                                    std::size_t j) {
  return eval(theta, plan_for(j));
}

void LikelihoodWorkspace::accept() {
  theta_ = cand_theta_;
  value_ = cand_value_;
  if (cand_degenerate_) {
    // The guard path computes no series; caches no longer describe the
    // committed theta, so later proposals fall back to full evaluation.
    degenerate_ = true;
    return;
  }
  const Plan& p = cand_plan_;
  if (p.rt_from < p.rt_to) {
    std::copy(cand_rt_.begin() + p.rt_from, cand_rt_.begin() + p.rt_to,
              rt_.begin() + p.rt_from);
    cand_rt_from_ = cand_rt_to_ = 0;  // the mirror is exact again
  }
  if (p.inc_from < days_) {
    const std::ptrdiff_t from =
        p.inc_from == 0 ? 0 : burnin_ + p.inc_from;
    std::copy(cand_inc_.begin() + from, cand_inc_.end(), inc_.begin() + from);
  }
  if (p.sigma_only) {
    std::copy(cand_contrib_.begin(), cand_contrib_.end(), contrib_.begin());
  } else {
    std::copy(cand_log_mu_.begin() +
                  static_cast<std::ptrdiff_t>(p.sample_from),
              cand_log_mu_.end(),
              log_mu_.begin() + static_cast<std::ptrdiff_t>(p.sample_from));
    std::copy(cand_contrib_.begin() +
                  static_cast<std::ptrdiff_t>(p.sample_from),
              cand_contrib_.end(),
              contrib_.begin() + static_cast<std::ptrdiff_t>(p.sample_from));
  }
  degenerate_ = false;
}

}  // namespace osprey::rt
