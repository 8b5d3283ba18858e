#include "rt/forecast.hpp"

#include <cmath>

#include "epi/kernels.hpp"
#include "num/rng.hpp"
#include "num/stats.hpp"
#include "util/error.hpp"

namespace osprey::rt {

Forecast forecast_incidence(const RtPosterior& posterior,
                            const std::vector<double>& recent_incidence,
                            const ForecastConfig& config) {
  OSPREY_REQUIRE(posterior.n_draws() > 0, "empty posterior");
  OSPREY_REQUIRE(config.horizon_days >= 1, "horizon must be >= 1");
  const std::vector<double> w = epi::default_generation_interval();
  OSPREY_REQUIRE(recent_incidence.size() >= w.size(),
                 "incidence history shorter than the generation interval");

  const std::size_t h = static_cast<std::size_t>(config.horizon_days);
  const std::size_t n_draws = posterior.n_draws();
  osprey::num::RngStream root(config.seed);

  // Projected incidence per draw.
  osprey::num::Matrix projections(n_draws, h);
  osprey::num::Matrix rt_paths(n_draws, h);
  for (std::size_t d = 0; d < n_draws; ++d) {
    osprey::num::RngStream rng = root.substream(d);
    // Start log R at the draw's final estimated value.
    double log_rt = std::log(
        std::max(posterior.draws(d, posterior.days() - 1), 1e-6));
    std::vector<double> inc = recent_incidence;
    for (std::size_t t = 0; t < h; ++t) {
      log_rt = (1.0 - config.reversion_rate) * log_rt +
               config.log_rt_daily_sd * rng.normal();
      double rt = std::exp(log_rt);
      double pressure = epi::renewal_pressure(inc, inc.size(), w);
      double next = rt * pressure;
      inc.push_back(next);
      projections(d, t) = next;
      rt_paths(d, t) = rt;
    }
  }

  Forecast out;
  out.median.resize(h);
  out.lo95.resize(h);
  out.hi95.resize(h);
  out.rt_median.resize(h);
  std::vector<double> col(n_draws);
  for (std::size_t t = 0; t < h; ++t) {
    for (std::size_t d = 0; d < n_draws; ++d) col[d] = projections(d, t);
    out.median[t] = osprey::num::quantile_select(col, 0.5);
    out.lo95[t] = osprey::num::quantile_select(col, 0.025);
    out.hi95[t] = osprey::num::quantile_select(col, 0.975);
    for (std::size_t d = 0; d < n_draws; ++d) col[d] = rt_paths(d, t);
    out.rt_median[t] = osprey::num::quantile_select(col, 0.5);
  }
  return out;
}

}  // namespace osprey::rt
