#include "rt/likelihood_ws.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "num/simd.hpp"
#include "util/error.hpp"

namespace osprey::rt {

namespace {
/// The reference guard value for out-of-support parameter vectors.
constexpr double kGuard = 1e12;

/// Whether two theta vectors agree bit for bit.
bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

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
  for (Slot& s : slots_) {
    s.theta.assign(dim(), 0.0);
    s.rt.assign(nd, 0.0);
    s.inc.assign(ni, 0.0);
    s.mu.assign(ns, 0.0);
    s.log_mu.assign(ns, 0.0);
    s.contrib.assign(ns, 0.0);
  }
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

bool LikelihoodWorkspace::begin(Slot& s, const Plan& plan) {
  const std::size_t kidx = static_cast<std::size_t>(k_);
  const std::vector<double>& theta = s.theta;
  s.plan = plan;
  s.degenerate = false;

  const double log_i0 = theta[kidx];
  const double log_sigma = theta[kidx + 1];
  if (log_i0 > 25.0 || log_sigma > 5.0 || log_sigma < -7.0) {
    s.degenerate = true;
    s.value = kGuard;
    return false;
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
  s.prior = nlp;

  if (plan.rt_from < plan.rt_to) {
    // The interpolation is element-local: only the window moves. Undo
    // the mirror's dirty range first, so that it is the committed R
    // everywhere else and the recursion can read it whole.
    std::copy(rt_.begin() + s.dirty_from, rt_.begin() + s.dirty_to,
              s.rt.begin() + s.dirty_from);
    num::simd::interp_log_knots_exp(theta.data(), k_,
                                    config_.knot_spacing_days, days_,
                                    plan.rt_from, plan.rt_to, s.rt.data());
    s.dirty_from = plan.rt_from;
    s.dirty_to = plan.rt_to;
  }
  if (plan.inc_from == 0) {
    // Reference semantics: the burn-in prefix of the incidence array
    // holds the initial level I0.
    std::fill(s.inc.begin(), s.inc.begin() + burnin_, std::exp(log_i0));
  } else if (plan.inc_from < days_) {
    // The recursion reads up to max(|w|, |shed|) days back across the
    // restart point; copy the whole committed prefix (cheap, SoA).
    std::copy(inc_.begin(), inc_.begin() + burnin_ + plan.inc_from,
              s.inc.begin());
  }
  return true;
}

double LikelihoodWorkspace::finish(Slot& s) {
  if (s.degenerate) return s.value;  // the theta guard fired in begin()
  const Plan& plan = s.plan;
  const double log_sigma = s.theta[static_cast<std::size_t>(k_) + 1];
  const double sigma = std::exp(log_sigma);
  const std::size_t n = sample_day_.size();
  if (plan.inc_from < days_) {
    // Expected concentration only where a sample reads it.
    num::simd::shedding_convolve(s.inc.data(), shed_.data(),
                                 static_cast<int>(shed_.size()), burnin_,
                                 config_.shedding_scale,
                                 config_.flow_liters_per_day,
                                 sample_day_.data(), plan.sample_from, n,
                                 s.mu.data());
  }

  // Observation terms.
  if (plan.sigma_only) {
    // Cached log(mu) is exact; only the scale and the additive
    // log sigma change. The committed state passed every positivity
    // guard, and mu is untouched, so no re-check is needed.
    for (std::size_t i = 0; i < n; ++i) {
      const double z = (sample_log_c_[i] - log_mu_[i]) / sigma;
      s.contrib[i] = 0.5 * z * z + log_sigma;
    }
  } else if (!num::simd::lognormal_terms(
                 s.mu.data(), sample_log_c_.data(), sample_pos_c_.data(),
                 plan.sample_from, n, sigma, log_sigma, s.log_mu.data(),
                 s.contrib.data())) {
    s.degenerate = true;
    s.value = kGuard;
    return kGuard;
  }
  double nlp = s.prior;
  for (std::size_t i = 0; i < plan.sample_from; ++i) nlp += contrib_[i];
  for (std::size_t i = plan.sample_from; i < n; ++i) nlp += s.contrib[i];
  s.value = nlp;
  return nlp;
}

double LikelihoodWorkspace::eval(const Plan& plan) {
  pending_ = kNoPair;
  last_ = 0;
  Slot& s = slots_[0];
  if (begin(s, plan) && plan.inc_from < days_) {
    // log I0 plans no R window: its recursion reads the committed R.
    const double* rt = plan.rt_from < plan.rt_to ? s.rt.data() : rt_.data();
    num::simd::renewal_incidence(rt, w_.data(),
                                 static_cast<int>(w_.size()), burnin_,
                                 plan.inc_from, days_, s.inc.data());
  }
  return finish(s);
}

double LikelihoodWorkspace::commit_full(const std::vector<double>& theta) {
  OSPREY_REQUIRE(theta.size() == dim(), "theta size mismatch");
  slots_[0].theta = theta;
  eval(full_plan());
  accept();
  return value_;
}

double LikelihoodWorkspace::propose(const std::vector<double>& theta,
                                    std::size_t j) {
  if (j == pending_) {
    // The pair's survivor: theta differs from the committed theta in j
    // alone, so it is C's if knot j-1's move was accepted, B's if not.
    for (std::size_t i : {2, 1}) {
      if (same_bits(theta, slots_[i].theta)) {
        pending_ = kNoPair;
        last_ = i;
        return finish(slots_[i]);
      }
    }
  }
  slots_[0].theta = theta;
  return eval(plan_for(j));
}

double LikelihoodWorkspace::propose_pair(const std::vector<double>& theta,
                                         std::size_t j, double next) {
  OSPREY_REQUIRE(j + 1 < dim(), "pair needs a successor component");
  if (degenerate_ || j + 1 >= static_cast<std::size_t>(k_)) {
    return propose(theta, j);
  }
  Slot& a = slots_[0];
  Slot& b = slots_[1];
  Slot& c = slots_[2];
  a.theta = theta;
  b.theta = theta_;
  b.theta[j + 1] = next;
  c.theta = theta;
  c.theta[j + 1] = next;
  const Plan pa = plan_for(j);
  const Plan pb = plan_for(j + 1);
  Plan pc = pa;
  pc.rt_to = pb.rt_to;
  // Knots leave log I0 and log sigma at their committed, finite values:
  // the theta guard passes in all three slots.
  begin(a, pa);
  begin(b, pb);
  begin(c, pc);
  // Before j+1's window, C's R and incidence are A's.
  const int lead_end = pb.inc_from;
  const int wlen = static_cast<int>(w_.size());
  num::simd::renewal_incidence(a.rt.data(), w_.data(), wlen, burnin_,
                               pa.inc_from, lead_end, a.inc.data());
  std::copy(a.inc.begin() + burnin_ + pa.inc_from,
            a.inc.begin() + burnin_ + lead_end,
            c.inc.begin() + burnin_ + pa.inc_from);
  const double* const rt[3] = {a.rt.data(), b.rt.data(), c.rt.data()};
  double* const inc[3] = {a.inc.data(), b.inc.data(), c.inc.data()};
  num::simd::renewal_incidence3(rt, w_.data(), wlen, burnin_, lead_end, days_,
                                inc);
  // B and C were scored against the committed caches as they are now.
  // Accepting A (even a degenerate A, which writes no cache) leaves
  // every range C reads and C's own accept() overwrites describing
  // this same state, so C stays exact after A is adopted.
  pending_ = j + 1;
  last_ = 0;
  return finish(a);
}

void LikelihoodWorkspace::accept() {
  Slot& s = slots_[last_];
  theta_ = s.theta;
  value_ = s.value;
  if (s.degenerate) {
    // The guard path computes no series; caches no longer describe the
    // committed theta, so later proposals fall back to full evaluation.
    degenerate_ = true;
    return;
  }
  const Plan& p = s.plan;
  if (p.rt_from < p.rt_to) {
    std::copy(s.rt.begin() + p.rt_from, s.rt.begin() + p.rt_to,
              rt_.begin() + p.rt_from);
    // Every mirror may now differ from the committed R on the window
    // (the adopted slot's is dirty there already).
    for (Slot& o : slots_) {
      const bool clean = o.dirty_from == o.dirty_to;
      o.dirty_from = clean ? p.rt_from : std::min(o.dirty_from, p.rt_from);
      o.dirty_to = clean ? p.rt_to : std::max(o.dirty_to, p.rt_to);
    }
  }
  if (p.inc_from < days_) {
    const std::ptrdiff_t from =
        p.inc_from == 0 ? 0 : burnin_ + p.inc_from;
    std::copy(s.inc.begin() + from, s.inc.end(), inc_.begin() + from);
  }
  if (p.sigma_only) {
    std::copy(s.contrib.begin(), s.contrib.end(), contrib_.begin());
  } else {
    std::copy(s.log_mu.begin() + static_cast<std::ptrdiff_t>(p.sample_from),
              s.log_mu.end(),
              log_mu_.begin() + static_cast<std::ptrdiff_t>(p.sample_from));
    std::copy(s.contrib.begin() + static_cast<std::ptrdiff_t>(p.sample_from),
              s.contrib.end(),
              contrib_.begin() + static_cast<std::ptrdiff_t>(p.sample_from));
  }
  degenerate_ = false;
}

}  // namespace osprey::rt
