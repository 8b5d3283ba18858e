#pragma once

/// \file likelihood_ws.hpp
/// Incremental evaluation of the Goldstein neg-log-posterior.
///
/// The component-wise Metropolis sweep perturbs ONE coordinate of
/// theta = [log R knots..., log I0, log sigma] per proposal. The chain
/// of dependencies is strictly forward in time:
///
///   knot j  -> daily R on [(j-1)*spacing+1, (j+1)*spacing)  (the window;
///                                              piecewise-linear, local)
///           -> incidence from the window on    (renewal recursion)
///           -> expected concentration at the sample days from it on
///                                              (shedding convolution)
///           -> observation terms of those samples,
///
/// while log I0 re-seeds the incidence recursion (daily R untouched)
/// and log sigma rescales only the observation terms (all series
/// untouched). This workspace caches the committed state's
/// structure-of-arrays — daily R, incidence, per-sample log(mu) and
/// likelihood contributions — and per proposal recomputes exactly what
/// the component can change through the shared num::simd kernels:
/// daily R only on the window, incidence on the suffix, and expected
/// concentration only at the sample days of the suffix (the likelihood
/// reads it nowhere else).
///
/// **Candidate slots.** A candidate lives in a slot: its theta, its
/// plan, and every series the plan recomputes. A slot's daily R is a
/// mirror: the recursion reads the candidate's R over the whole
/// suffix, but a proposal writes only its window, so the slot's array
/// is kept equal to the committed one outside a dirty range. The next
/// evaluation in the slot first restores that range from the committed
/// R; accept() copies the adopted slot's window back the other way and
/// adds it to every slot's dirty range.
///
/// **Speculative knot pairs.** The sweep's draws never depend on an
/// accept decision, so knot j+1's move is known before knot j is
/// decided. propose_pair() scores knot j's move (slot A) and runs the
/// renewal recursion of knot j+1's move under both outcomes: B moves
/// j+1 alone (j rejected) and C moves both (j accepted). A runs alone
/// over the days before j+1's window, where C equals A and B is the
/// committed incidence; the three then run interleaved over the common
/// suffix. The following propose() for j+1 only finishes the survivor
/// (shedding convolution, log terms, sum).
///
/// **Bit-identity contract.** propose() returns the same IEEE double a
/// from-scratch evaluation of the candidate theta would return: cached
/// prefix values are pure functions of unchanged inputs, the suffix is
/// recomputed by the same kernels, and the accumulation (priors first,
/// then per-sample terms in sample order) replays the reference order.
/// The Metropolis accept decisions — and therefore the posterior draws
/// — are unchanged from a full-recompute sweep; only the work shrinks.
///
/// Degenerate states (the reference returns the 1e12 guard value,
/// either from the theta bounds guard or a non-positive expected
/// concentration) leave the caches stale; the workspace tracks this and
/// falls back to full evaluation until a finite state is committed,
/// matching the reference arithmetic there too.

#include <array>
#include <cstddef>
#include <vector>

#include "epi/wastewater.hpp"
#include "rt/goldstein.hpp"

namespace osprey::rt {

class LikelihoodWorkspace {
 public:
  /// Buffers are sized once here; no allocation happens per proposal.
  /// Throws InvalidArgument when a sample day is outside [0, days).
  /// Samples may come in any day order. A non-positive concentration
  /// makes every state degenerate (the reference guard value).
  LikelihoodWorkspace(const GoldsteinConfig& config,
                      std::vector<double> gen_interval,
                      std::vector<double> shedding,
                      const std::vector<epi::WwSample>& samples, int days);

  int days() const { return days_; }
  int num_knots() const { return k_; }
  std::size_t dim() const { return static_cast<std::size_t>(k_) + 2; }

  /// Evaluate theta from scratch and make it the committed state.
  double commit_full(const std::vector<double>& theta);

  /// Evaluate a candidate theta that differs from the committed theta
  /// in exactly component j. Does not change the committed state; call
  /// accept() to adopt the candidate, or simply propose again.
  double propose(const std::vector<double>& theta, std::size_t j);

  /// propose(theta, j) for a knot j whose successor j+1 is a knot too,
  /// that also prepares knot j+1's move to `next`: after this call and
  /// an optional accept(), propose(theta', j+1) with theta'[j+1] ==
  /// `next` returns its value without a renewal recursion of its own.
  /// Values are bitwise those of propose(). From a degenerate committed
  /// state, or when j+1 is not a knot, this is plain propose(theta, j).
  double propose_pair(const std::vector<double>& theta, std::size_t j,
                      double next);

  /// Adopt the most recent propose()/propose_pair()/commit_full()
  /// candidate.
  void accept();

  bool committed_degenerate() const { return degenerate_; }

 private:
  /// What a candidate evaluation must recompute: daily R on
  /// [rt_from, rt_to) (empty: reuse the committed R), incidence from
  /// inc_from (days_: reuse), samples from sample_from.
  struct Plan {
    int rt_from = 0;
    int rt_to = 0;
    int inc_from = 0;
    std::size_t sample_from = 0;
    bool sigma_only = false;  // reuse cached log(mu), rescale terms
  };

  /// One candidate and the series its plan recomputes.
  struct Slot {
    std::vector<double> theta;
    std::vector<double> rt;  // the committed R outside [dirty_from, dirty_to)
    int dirty_from = 0;
    int dirty_to = 0;
    std::vector<double> inc;
    std::vector<double> mu;  // per sample, valid from plan.sample_from
    std::vector<double> log_mu;
    std::vector<double> contrib;
    Plan plan;
    double prior = 0.0;  // the priors: value's accumulation starts here
    double value = 0.0;
    bool degenerate = true;
  };

  Plan plan_for(std::size_t j) const;
  Plan full_plan() const;
  /// Score slot 0's theta (already set) under `plan`.
  double eval(const Plan& plan);
  /// The stages of an evaluation. begin() checks the theta guard,
  /// sums the priors, writes the R window and seeds the incidence
  /// prefix; false when the guard fired (value is then final). The
  /// caller runs the recursion; finish() adds the observation terms.
  bool begin(Slot& s, const Plan& plan);
  double finish(Slot& s);
  /// First sample index at/after `day` (all earlier indices are
  /// strictly before it, whatever the input order).
  std::size_t first_sample_at(int day) const;

  // --- immutable problem description ---
  GoldsteinConfig config_;
  std::vector<double> w_;     // generation interval
  std::vector<double> shed_;  // shedding kernel
  int days_ = 0;
  int k_ = 0;       // number of knots
  int burnin_ = 0;  // incidence burn-in rows (= w_.size())
  std::vector<int> sample_day_;
  std::vector<double> sample_log_c_;
  std::vector<unsigned char> sample_pos_c_;

  // --- committed state ---
  std::vector<double> theta_;
  std::vector<double> rt_;       // days_
  std::vector<double> inc_;      // burnin_ + days_
  std::vector<double> log_mu_;   // per sample
  std::vector<double> contrib_;  // per sample
  double value_ = 0.0;
  bool degenerate_ = true;  // nothing committed yet

  // --- candidates: A (single proposals, or knot j of a pair), then a
  // pair's B (j+1 moved alone) and C (both moved) ---
  std::array<Slot, 3> slots_;
  std::size_t last_ = 0;  // the slot accept() adopts
  /// The component whose propose() a pair's B or C may answer.
  static constexpr std::size_t kNoPair = static_cast<std::size_t>(-1);
  std::size_t pending_ = kNoPair;
};

}  // namespace osprey::rt
