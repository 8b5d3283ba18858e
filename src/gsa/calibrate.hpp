#pragma once

/// \file calibrate.hpp
/// Surrogate-based model calibration — the workflow the paper's GSA
/// exists to serve ("GSA helps identify the most influential
/// parameters, facilitates dimensional reduction to aid in model
/// calibration efforts") and the kind of "novel, HPC-oriented model
/// exploration algorithm" its conclusion anticipates.
///
/// Bayesian-optimization loop over a parameter box: LHS initial design →
/// GP surrogate of the misfit → expected-improvement acquisition → one
/// evaluation per iteration. The misfit is any user loss (typically the
/// squared error between simulated and observed hospitalization
/// curves). Shares the GP/acquisition machinery with MUSIC.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "gp/gp.hpp"
#include "gsa/sobol.hpp"
#include "gsa/surrogate_loop.hpp"

namespace osprey::gsa {

/// Loss to minimize over the box (smaller = better fit).
using LossFn = std::function<double(const Vector&)>;

struct CalibrationConfig {
  std::vector<ParamRange> ranges;
  std::size_t n_init = 15;
  std::size_t n_total = 60;
  std::size_t n_candidates = 300;
  std::size_t reopt_every = 10;
  osprey::gp::GpConfig gp;
  std::uint64_t seed = 1;
};

struct CalibrationStep {
  std::size_t n = 0;
  double best_loss = 0.0;
};

struct CalibrationResult {
  Vector best_x;              // box coordinates of the best point found
  double best_loss = 0.0;
  std::vector<CalibrationStep> trajectory;  // best-so-far per evaluation
  std::size_t evaluations = 0;
};

/// Stepwise calibrator (design / ingest / advance) on the same
/// SurrogateLoop as MusicEngine, so it can also run over an EMEWS queue.
class Calibrator {
 public:
  explicit Calibrator(CalibrationConfig config);

  bool done() const { return loop_.done(); }

  /// Initial LHS design (box coordinates); call once.
  Matrix initial_design_box() { return loop_.initial_design_box(); }
  /// Record an evaluated (point, loss).
  void ingest(const Vector& x_box, double loss);
  /// Refresh the surrogate and return the next expected-improvement
  /// point, or nullopt when the budget is exhausted.
  std::optional<Vector> advance();

  const osprey::gp::GaussianProcess& surrogate() const {
    return loop_.surrogate();
  }

  CalibrationResult result() const;

 private:
  SurrogateLoop loop_;
  std::vector<CalibrationStep> trajectory_;
};

/// Synchronous driver.
CalibrationResult calibrate(const CalibrationConfig& config,
                            const LossFn& loss);

/// Convenience loss: mean squared error between two equal-length series
/// (e.g. observed vs simulated daily hospitalizations), on a log1p scale
/// so peaks don't dominate everything.
double series_mse_log(const std::vector<double>& simulated,
                      const std::vector<double>& observed);

}  // namespace osprey::gsa
