#include "gsa/calibrate.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace osprey::gsa {

Calibrator::Calibrator(CalibrationConfig config)
    : loop_(std::move(config.ranges), config.n_init, config.n_total,
            config.n_candidates, config.reopt_every, config.gp, config.seed,
            0xCA1B) {}

void Calibrator::ingest(const Vector& x_box, double loss) {
  loop_.ingest(x_box, loss);
  const std::vector<double>& y = loop_.y();
  trajectory_.push_back(
      CalibrationStep{y.size(), *std::min_element(y.begin(), y.end())});
}

std::optional<Vector> Calibrator::advance() {
  if (done()) return std::nullopt;
  loop_.refresh();

  // Expected improvement for MINIMIZATION.
  const std::vector<double>& y = loop_.y();
  const double best_y = *std::min_element(y.begin(), y.end());
  return loop_.acquire([this, best_y](const Vector& u) {
    osprey::gp::GpPrediction pred = loop_.surrogate().predict(u);
    double sd = std::sqrt(std::max(pred.variance, 0.0));
    if (sd <= 0.0) return best_y - pred.mean;
    double z = (best_y - pred.mean) / sd;
    double phi = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
    double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
    return (best_y - pred.mean) * cdf + sd * phi;
  });
}

CalibrationResult Calibrator::result() const {
  const std::vector<double>& y = loop_.y();
  OSPREY_REQUIRE(!y.empty(), "no evaluations recorded");
  CalibrationResult out;
  std::size_t best = 0;
  for (std::size_t i = 1; i < y.size(); ++i) {
    if (y[i] < y[best]) best = i;
  }
  out.best_x = loop_.x_box(best);
  out.best_loss = y[best];
  out.trajectory = trajectory_;
  out.evaluations = y.size();
  return out;
}

CalibrationResult calibrate(const CalibrationConfig& config,
                            const LossFn& loss) {
  return run_inline(Calibrator(config), loss);
}

double series_mse_log(const std::vector<double>& simulated,
                      const std::vector<double>& observed) {
  OSPREY_REQUIRE(simulated.size() == observed.size() && !observed.empty(),
                 "series length mismatch");
  double acc = 0.0;
  for (std::size_t t = 0; t < observed.size(); ++t) {
    double d = std::log1p(std::max(simulated[t], 0.0)) -
               std::log1p(std::max(observed[t], 0.0));
    acc += d * d;
  }
  return acc / static_cast<double>(observed.size());
}

}  // namespace osprey::gsa
