#include "rt/posterior.hpp"

#include "num/stats.hpp"
#include "util/error.hpp"

namespace osprey::rt {

double RtSeries::coverage(const std::vector<double>& truth) const {
  OSPREY_REQUIRE(truth.size() == median.size(), "coverage size mismatch");
  if (truth.empty()) return 0.0;
  std::size_t inside = 0;
  for (std::size_t t = 0; t < truth.size(); ++t) {
    if (truth[t] >= lo95[t] && truth[t] <= hi95[t]) ++inside;
  }
  return static_cast<double>(inside) / static_cast<double>(truth.size());
}

RtSeries RtPosterior::summarize() const {
  RtSeries out;
  std::size_t t_days = days();
  out.median.resize(t_days);
  out.lo95.resize(t_days);
  out.hi95.resize(t_days);
  std::vector<double> col(n_draws());
  for (std::size_t t = 0; t < t_days; ++t) {
    for (std::size_t d = 0; d < n_draws(); ++d) col[d] = draws(d, t);
    out.median[t] = osprey::num::quantile_select(col, 0.5);
    out.lo95[t] = osprey::num::quantile_select(col, 0.025);
    out.hi95[t] = osprey::num::quantile_select(col, 0.975);
  }
  return out;
}

}  // namespace osprey::rt
