#include "gsa/surrogate_loop.hpp"

#include <cmath>
#include <limits>

#include "num/sampling.hpp"
#include "util/error.hpp"

namespace osprey::gsa {

SurrogateLoop::SurrogateLoop(std::vector<ParamRange> ranges,
                             std::size_t n_init, std::size_t n_total,
                             std::size_t n_candidates,
                             std::size_t reopt_every,
                             const osprey::gp::GpConfig& gp,
                             std::uint64_t seed, std::uint64_t salt)
    : ranges_(std::move(ranges)),
      n_init_(n_init),
      n_total_(n_total),
      n_candidates_(n_candidates),
      reopt_every_(reopt_every),
      rng_(seed, salt),
      gp_(gp) {
  OSPREY_REQUIRE(!ranges_.empty(), "needs parameter ranges");
  OSPREY_REQUIRE(n_init_ >= 4, "initial design too small");
  OSPREY_REQUIRE(n_total_ >= n_init_, "n_total < n_init");
}

Matrix SurrogateLoop::initial_design_box() {
  osprey::num::RngStream design_rng = rng_.substream(1);
  Matrix unit = osprey::num::latin_hypercube(n_init_, dim(), design_rng);
  return osprey::num::scale_design(unit, ranges_);
}

void SurrogateLoop::ingest(const Vector& x_box, double y) {
  OSPREY_REQUIRE(x_box.size() == dim(), "point dimension mismatch");
  OSPREY_REQUIRE(std::isfinite(y), "non-finite response");
  x_unit_.push_back(osprey::num::scale_to_unit(x_box, ranges_));
  y_.push_back(y);
}

void SurrogateLoop::refresh() {
  OSPREY_REQUIRE(y_.size() >= n_init_,
                 "advance() before the initial design is evaluated");
  if (!gp_.fitted() || y_.size() >= last_reopt_n_ + reopt_every_) {
    Matrix x(x_unit_.size(), dim());
    for (std::size_t i = 0; i < x_unit_.size(); ++i) x.set_row(i, x_unit_[i]);
    gp_.update_data(x, y_);
    gp_.reoptimize();
    last_reopt_n_ = y_.size();
  } else {
    for (std::size_t i = gp_.n(); i < x_unit_.size(); ++i) {
      gp_.add_point(x_unit_[i], y_[i]);
    }
  }
}

Vector SurrogateLoop::acquire(const ScoreFn& score) const {
  osprey::num::RngStream cand_rng = rng_.substream(1000 + y_.size());
  Matrix candidates =
      osprey::num::latin_hypercube(n_candidates_, dim(), cand_rng);
  std::size_t best = 0;
  if (!score) {
    best = static_cast<std::size_t>(cand_rng.uniform_int(candidates.rows()));
  } else {
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < candidates.rows(); ++c) {
      double s = score(candidates.row(c));
      if (s > best_score) {
        best_score = s;
        best = c;
      }
    }
  }
  return osprey::num::scale_to_box(candidates.row(best), ranges_);
}

Vector SurrogateLoop::x_box(std::size_t i) const {
  return osprey::num::scale_to_box(x_unit_[i], ranges_);
}

}  // namespace osprey::gsa
