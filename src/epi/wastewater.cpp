#include "epi/wastewater.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

#include "epi/kernels.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace osprey::epi {

std::vector<Plant> chicago_plants() {
  // Approximate public service-population figures; these set the
  // population weights of the ensemble aggregation (Figure 2, bottom).
  return {
      Plant{"O'Brien", 1'300'000, 230.0},
      Plant{"Calumet", 1'100'000, 280.0},
      Plant{"Stickney South", 1'150'000, 350.0},
      Plant{"Stickney North", 1'200'000, 350.0},
  };
}

std::vector<RtTruthParams> chicago_truths() {
  std::vector<RtTruthParams> out(4);
  out[0] = RtTruthParams{0.06, 0.32, 0.0, 140.0, -0.0020};
  out[1] = RtTruthParams{0.02, 0.38, 18.0, 140.0, -0.0015};
  out[2] = RtTruthParams{0.08, 0.30, 35.0, 140.0, -0.0025};
  out[3] = RtTruthParams{0.04, 0.34, 52.0, 140.0, -0.0018};
  return out;
}

WastewaterGenerator::WastewaterGenerator(Plant plant, RtTruthParams truth,
                                         WastewaterConfig config,
                                         std::uint64_t seed)
    : plant_(std::move(plant)), truth_(truth), config_(std::move(config)) {
  OSPREY_REQUIRE(config_.days > 0, "horizon must be positive");
  OSPREY_REQUIRE(config_.noise_sigma >= 0, "negative noise");
  OSPREY_REQUIRE(config_.publish_period_days >= 1, "bad publish period");
  generate(seed);
}

void WastewaterGenerator::generate(std::uint64_t seed) {
  osprey::num::RngStream rng(seed);
  const int days = config_.days;
  const std::vector<double> w = default_generation_interval();
  const std::vector<double> shed = default_shedding_kernel();

  true_rt_.resize(static_cast<std::size_t>(days));
  for (int t = 0; t < days; ++t) {
    double log_rt = truth_.level +
                    truth_.amp * std::sin(2.0 * M_PI *
                                          (static_cast<double>(t) +
                                           truth_.phase_days) /
                                          truth_.period_days) +
                    truth_.trend_per_day * static_cast<double>(t);
    true_rt_[static_cast<std::size_t>(t)] = std::exp(log_rt);
  }

  // Renewal process with a burn-in ramp of seed infections. Incidence
  // history longer than the generation interval is kept so day 0 already
  // has infection pressure behind it.
  const int burnin = static_cast<int>(w.size());
  std::vector<double> inc(static_cast<std::size_t>(burnin + days), 0.0);
  for (int t = 0; t < burnin; ++t) {
    inc[static_cast<std::size_t>(t)] =
        std::max(1.0, static_cast<double>(
                          rng.poisson(config_.initial_incidence)));
  }
  for (int t = 0; t < days; ++t) {
    std::size_t idx = static_cast<std::size_t>(burnin + t);
    double pressure = renewal_pressure(inc, idx, w);
    double mean = true_rt_[static_cast<std::size_t>(t)] * pressure;
    inc[idx] = static_cast<double>(rng.poisson(std::max(mean, 0.0)));
  }
  incidence_.assign(inc.begin() + burnin, inc.end());

  // Reported cases: binomial thinning of incidence (for the Cori
  // baseline comparison).
  cases_.resize(static_cast<std::size_t>(days));
  for (int t = 0; t < days; ++t) {
    std::size_t i = static_cast<std::size_t>(t);
    cases_[i] = static_cast<double>(
        rng.binomial(static_cast<std::int64_t>(incidence_[i]),
                     config_.reporting_fraction));
  }

  // Latent concentration: shedding convolution over incidence (with the
  // burn-in history contributing) normalized by plant flow.
  latent_conc_.resize(static_cast<std::size_t>(days));
  for (int t = 0; t < days; ++t) {
    double load = 0.0;
    for (std::size_t s = 0; s < shed.size(); ++s) {
      int src = burnin + t - static_cast<int>(s);
      if (src < 0) break;
      load += shed[s] * inc[static_cast<std::size_t>(src)];
    }
    latent_conc_[static_cast<std::size_t>(t)] =
        config_.shedding_scale * load /
        (plant_.avg_flow_mgd * 3.785e6);  // MGD -> liters/day
  }

  // Sampling schedule: configured weekdays, lognormal noise.
  for (int t = 0; t < days; ++t) {
    int weekday = t % 7;
    bool sampled = false;
    for (int d : config_.sample_weekdays) {
      if (weekday == d) {
        sampled = true;
        break;
      }
    }
    if (!sampled) continue;
    double noise = rng.lognormal(-0.5 * config_.noise_sigma *
                                     config_.noise_sigma,
                                 config_.noise_sigma);  // mean-1 noise
    samples_.push_back(WwSample{
        t, latent_conc_[static_cast<std::size_t>(t)] * noise});
  }
}

std::vector<WwSample> WastewaterGenerator::samples_through(int day) const {
  std::vector<WwSample> out;
  for (const WwSample& s : samples_) {
    if (s.day <= day) out.push_back(s);
  }
  return out;
}

int WastewaterGenerator::last_publication_day(int day) const {
  if (day < 0) return -1;
  return (day / config_.publish_period_days) * config_.publish_period_days;
}

std::string WastewaterGenerator::published_csv(int day) const {
  // Rendered straight into one string: the bytes a CsvTable of these
  // rows writes, with "%.6g" concentrations (std::to_chars' general
  // format at a given precision is printf's %g).
  const int pub_day = last_publication_day(day);
  const std::string plant = osprey::util::csv_field(plant_.name);
  std::string out = "day,plant,concentration_gc_per_l\n";
  for (const WwSample& s : samples_) {
    if (s.day > pub_day) break;
    out += std::to_string(s.day);
    out += ',';
    out += plant;
    out += ',';
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, s.concentration,
                      std::chars_format::general, 6);
    OSPREY_CHECK(r.ec == std::errc{}, "concentration buffer too small");
    out.append(buf, r.ptr);
    out += '\n';
  }
  return out;
}

}  // namespace osprey::epi
