#pragma once

/// \file goldstein.hpp
/// Semiparametric Bayesian estimation of R(t) from wastewater pathogen
/// concentrations, following the structure of the Goldstein method the
/// paper's §2.1 adopts:
///
///  - a mechanistic epidemic layer: log R(t) is piecewise linear between
///    weekly knots with a Gaussian random-walk prior (the semiparametric
///    part); latent incidence follows the renewal equation;
///  - a statistical observation layer: expected concentration is the
///    shedding-kernel convolution of incidence normalized by plant flow;
///    observed concentrations are lognormally distributed around it;
///  - posterior sampling: adaptive component-wise random-walk Metropolis
///    over (log R knots, log initial incidence, log observation sigma).
///
/// "This estimation procedure is significantly more computationally
/// expensive than more standard R(t) estimation methods" — the MCMC here
/// is orders of magnitude more work than the Cori baseline in cori.hpp,
/// which is exactly why the paper runs it on an HPC compute node.
///
/// Two execution modes share the incremental LikelihoodWorkspace
/// (likelihood_ws.hpp):
///  - estimate() runs the full cold chain; its draws are a pure function
///    of (samples, days, seed);
///  - estimate_update() warm-starts from a GoldsteinChainState captured
///    by a previous fit, extends the knot vector only by the newly
///    observed days, and runs a capped number of iterations so the
///    time-to-fresh-R(t) after one new sample is bounded.

#include <cstdint>
#include <vector>

#include "epi/wastewater.hpp"
#include "rt/posterior.hpp"

namespace osprey::rt {

class LikelihoodWorkspace;

struct GoldsteinConfig {
  int knot_spacing_days = 7;
  int iterations = 6000;
  int burnin = 3000;
  int thin = 6;
  /// Capped chain length for warm-start online refits: an
  /// estimate_update() call runs exactly update_iterations sweeps
  /// (update_burnin of them re-adaptive), independent of how much
  /// history has accumulated — this is what bounds time-to-fresh-R(t).
  int update_iterations = 600;
  int update_burnin = 200;
  double rw_prior_sd = 0.15;      // random-walk prior on log R knots
  double logr0_prior_sd = 0.5;    // prior on the first knot
  double sigma_halfnormal_sd = 0.5;  // prior scale of observation sigma
  /// Known physical constants of the observation layer (the estimator,
  /// like the original method, assumes known shedding dynamics).
  double shedding_scale = 1.0e9;
  double flow_liters_per_day = 230.0 * 3.785e6;
  std::uint64_t seed = 12345;
};

/// Where a Metropolis chain left off: the last parameter vector, the
/// adapted per-component step sizes, and the horizon they describe.
/// Captured by estimate() and advanced in place by estimate_update();
/// `updates` counts warm refits applied since the cold fit, giving each
/// posterior in an online sequence its provenance lineage position.
struct GoldsteinChainState {
  std::vector<double> theta;  // [log R knots..., log I0, log sigma]
  std::vector<double> step;   // adapted proposal scales, same layout
  int days = 0;
  std::uint64_t updates = 0;

  bool valid() const {
    return days >= 2 && theta.size() >= 3 && theta.size() == step.size();
  }
};

/// The estimator. Construction precomputes kernels; estimate() is const
/// and safe to call concurrently with distinct outputs.
class GoldsteinEstimator {
 public:
  explicit GoldsteinEstimator(GoldsteinConfig config);

  const GoldsteinConfig& config() const { return config_; }

  /// Estimate R(t) for days [0, days) from the samples. Throws
  /// InvalidArgument when there are fewer than 4 samples, or when a
  /// concentration is zero, negative or not finite: the lognormal
  /// observation model has no likelihood there (callers drop such rows
  /// first, as the wastewater use case's ww-transform does).
  RtPosterior estimate(const std::vector<epi::WwSample>& samples,
                       int days) const;

  /// Same, with an explicit chain seed overriding config.seed. The
  /// posterior is a pure function of (samples, days, seed), so ensemble
  /// fan-outs can give each plant its own independent stream and still
  /// get bit-identical results regardless of execution order. When
  /// out_state is non-null the final chain position is captured there
  /// for later estimate_update() calls.
  RtPosterior estimate(const std::vector<epi::WwSample>& samples, int days,
                       std::uint64_t seed,
                       GoldsteinChainState* out_state = nullptr) const;

  /// Warm-start online refit: resume from `state` (advanced in place),
  /// extending the knot vector to cover days [state.days, days) by
  /// replicating the last knot — the random-walk prior's mean-zero
  /// increment — and run a capped update_iterations-sweep chain.
  /// Requires state.valid(), days >= state.days and >= 4 samples, each
  /// with a positive, finite concentration (InvalidArgument otherwise;
  /// `state` is then left unchanged).
  RtPosterior estimate_update(const std::vector<epi::WwSample>& samples,
                              int days, std::uint64_t seed,
                              GoldsteinChainState& state) const;

  /// Negative log posterior at a parameter vector (exposed for tests).
  /// theta = [logR knots..., log I0, log sigma]. Allocating wrapper
  /// over a one-shot LikelihoodWorkspace full evaluation.
  double neg_log_posterior(const std::vector<double>& theta,
                           const std::vector<epi::WwSample>& samples,
                           int days) const;

  int num_knots(int days) const;

  /// Daily R(t) from knot values (piecewise linear in log space; the
  /// final knot is pinned to day days-1 when the spacing does not
  /// divide days-1). Exposed so tests and draw post-processing share
  /// the exact chain arithmetic.
  std::vector<double> knots_to_daily(const std::vector<double>& log_knots,
                                     int days) const;

  const std::vector<double>& generation_interval() const {
    return gen_interval_;
  }
  const std::vector<double>& shedding_kernel() const { return shedding_; }

  /// An incremental-evaluation workspace bound to (samples, days),
  /// sharing this estimator's config and kernels.
  LikelihoodWorkspace make_workspace(
      const std::vector<epi::WwSample>& samples, int days) const;

 private:
  /// The component-wise adaptive Metropolis sweep shared by cold fits
  /// and warm updates. theta/step are the chain position (advanced in
  /// place); draws and the overall/per-phase acceptance rates are
  /// stored into `posterior`.
  void run_chain(LikelihoodWorkspace& ws, std::vector<double>& theta,
                 std::vector<double>& step, std::uint64_t seed,
                 int iterations, int burnin, int days,
                 RtPosterior& posterior) const;

  GoldsteinConfig config_;
  std::vector<double> gen_interval_;
  std::vector<double> shedding_;
};

}  // namespace osprey::rt
