#include "gsa/music.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace osprey::gsa {

MusicEngine::MusicEngine(MusicConfig config)
    : config_(std::move(config)),
      loop_(config_.ranges, config_.n_init, config_.n_total,
            config_.n_candidates, config_.reopt_every, config_.gp,
            config_.seed, 0xBEEF) {
  for (const ParamRange& r : config_.ranges) {
    unit_ranges_.push_back(ParamRange{r.name, 0.0, 1.0});
  }
}

SobolIndices MusicEngine::estimate_surrogate_indices() const {
  BatchModelFn surrogate = [this](const Matrix& u) {
    return loop_.surrogate().predict_mean(u);
  };
  SobolIndices idx =
      saltelli_indices(surrogate, unit_ranges_, config_.surrogate_mc_n);
  // Clamp to [0,1]: MC noise can push estimates slightly outside.
  for (double& s : idx.first_order) s = std::clamp(s, 0.0, 1.0);
  for (double& s : idx.total_order) s = std::clamp(s, 0.0, 1.0);
  return idx;
}

const char* acquisition_name(Acquisition acquisition) {
  switch (acquisition) {
    case Acquisition::kEigf: return "EIGF";
    case Acquisition::kVariance: return "variance (ALM)";
    case Acquisition::kEi: return "EI";
    case Acquisition::kUcb: return "UCB";
    case Acquisition::kRandom: return "random";
  }
  return "?";
}

double MusicEngine::acquisition_score(const Vector& u) const {
  const std::vector<Vector>& x_unit = loop_.x_unit();
  const std::vector<double>& y = loop_.y();
  osprey::gp::GpPrediction pred = loop_.surrogate().predict(u);
  double sd = std::sqrt(std::max(pred.variance, 0.0));
  switch (config_.acquisition) {
    case Acquisition::kEigf: {
      // Nearest design point in the unit cube (plain Euclidean metric,
      // as in the EIGF definition).
      double best_dist = std::numeric_limits<double>::infinity();
      std::size_t nn = 0;
      for (std::size_t i = 0; i < x_unit.size(); ++i) {
        double q = 0.0;
        for (std::size_t j = 0; j < u.size(); ++j) {
          double d = x_unit[i][j] - u[j];
          q += d * d;
        }
        if (q < best_dist) {
          best_dist = q;
          nn = i;
        }
      }
      double local = pred.mean - y[nn];
      return local * local + pred.variance;
    }
    case Acquisition::kVariance:
      return pred.variance;
    case Acquisition::kEi: {
      // Expected improvement over the best (largest) observed response.
      double best_y = *std::max_element(y.begin(), y.end());
      if (sd <= 0.0) return 0.0;
      double z = (pred.mean - best_y) / sd;
      double phi = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
      double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
      return (pred.mean - best_y) * cdf + sd * phi;
    }
    case Acquisition::kUcb:
      return pred.mean + config_.ucb_beta * sd;
    case Acquisition::kRandom:
      break;  // advance() draws from the pool without a score
  }
  return 0.0;
}

std::optional<Vector> MusicEngine::advance() {
  loop_.refresh();
  SobolIndices idx = estimate_surrogate_indices();
  trajectory_.push_back(MusicStep{loop_.y().size(),
                                  std::move(idx.first_order),
                                  std::move(idx.total_order)});
  if (done()) return std::nullopt;
  if (config_.acquisition == Acquisition::kRandom) return loop_.acquire({});
  return loop_.acquire(
      [this](const Vector& u) { return acquisition_score(u); });
}

MusicResult MusicEngine::result() const {
  MusicResult out;
  out.trajectory = trajectory_;
  if (!trajectory_.empty()) out.final_s1 = trajectory_.back().s1;
  out.x_box = Matrix(loop_.x_unit().size(), loop_.dim());
  for (std::size_t i = 0; i < out.x_box.rows(); ++i) {
    out.x_box.set_row(i, loop_.x_box(i));
  }
  out.y = loop_.y();
  out.evaluations = out.y.size();
  return out;
}

MusicResult run_music(const MusicConfig& config, const ModelFn& model) {
  return run_inline(MusicEngine(config), model);
}

std::size_t stabilization_n(const std::vector<MusicStep>& trajectory,
                            double eps) {
  OSPREY_REQUIRE(!trajectory.empty(), "empty trajectory");
  const std::size_t d = trajectory.front().s1.size();
  // Walk backwards: find the earliest record such that every later
  // record differs from the final values by < eps in every index.
  const std::vector<double>& final_s1 = trajectory.back().s1;
  std::size_t stable_from = trajectory.size() - 1;
  for (std::size_t r = trajectory.size(); r-- > 0;) {
    bool ok = true;
    for (std::size_t j = 0; j < d; ++j) {
      if (std::fabs(trajectory[r].s1[j] - final_s1[j]) >= eps) {
        ok = false;
        break;
      }
    }
    if (!ok) break;
    stable_from = r;
  }
  return trajectory[stable_from].n;
}

}  // namespace osprey::gsa
