#pragma once

/// \file surrogate_loop.hpp
/// The active-learning loop MusicEngine and Calibrator share: an LHS
/// initial design, unit-cube ingest, the GP surrogate's refresh cadence
/// and the candidate-pool argmax, plus the synchronous driver. Each
/// engine owns one loop and keeps its own acquisition and trajectory.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "gp/gp.hpp"
#include "gsa/sobol.hpp"

namespace osprey::gsa {

class SurrogateLoop {
 public:
  /// Acquisition score of a unit-cube candidate (larger = better).
  using ScoreFn = std::function<double(const Vector& u)>;

  /// `salt` keys the engine's RNG stream off `seed`, so two engines on
  /// one seed draw different designs.
  SurrogateLoop(std::vector<ParamRange> ranges, std::size_t n_init,
                std::size_t n_total, std::size_t n_candidates,
                std::size_t reopt_every, const osprey::gp::GpConfig& gp,
                std::uint64_t seed, std::uint64_t salt);

  std::size_t dim() const { return ranges_.size(); }
  bool done() const { return y_.size() >= n_total_; }

  /// The initial LHS design in box coordinates (call once).
  Matrix initial_design_box();

  /// Record one evaluated point (box coordinates).
  void ingest(const Vector& x_box, double y);

  /// Condition the surrogate on everything ingested: a full
  /// update_data + reoptimize on the first call and every `reopt_every`
  /// points after the last one (0: on every call), otherwise one O(n^2)
  /// add_point per new point (hyperparameters unchanged).
  void refresh();

  /// The candidate of an LHS pool (from substream 1000 + n, n points
  /// ingested) with the highest score, in box coordinates. A null score
  /// draws one candidate uniformly from the pool instead.
  Vector acquire(const ScoreFn& score) const;

  const std::vector<Vector>& x_unit() const { return x_unit_; }
  const std::vector<double>& y() const { return y_; }
  Vector x_box(std::size_t i) const;  // ingested point i, box coordinates
  const osprey::gp::GaussianProcess& surrogate() const { return gp_; }

 private:
  std::vector<ParamRange> ranges_;
  std::size_t n_init_;
  std::size_t n_total_;
  std::size_t n_candidates_;
  std::size_t reopt_every_;
  osprey::num::RngStream rng_;
  osprey::gp::GaussianProcess gp_;
  std::vector<Vector> x_unit_;
  std::vector<double> y_;
  std::size_t last_reopt_n_ = 0;
};

/// Synchronous driver of a design / ingest / advance engine: evaluates
/// `fn` inline on the initial design and on every proposed point.
template <class Engine, class Fn>
auto run_inline(Engine engine, const Fn& fn) {
  Matrix design = engine.initial_design_box();
  for (std::size_t i = 0; i < design.rows(); ++i) {
    Vector x = design.row(i);
    engine.ingest(x, fn(x));
  }
  while (std::optional<Vector> next = engine.advance()) {
    engine.ingest(*next, fn(*next));
  }
  return engine.result();
}

}  // namespace osprey::gsa
