/// ww_rt_year: the paper's Figure 1/2 pipeline (core::WastewaterUseCase)
/// over a 224-day horizon: 4 plants, 32 weekly publications, online
/// warm R(t) refits. Refits dominate the wall time and the fabric sees
/// only a few thousand events, so this workload moves with the rt layer
/// and should not move with fabric or aero changes. Past about day 225
/// the Stickney plants' series stop growing, so a longer horizon would
/// time refits on frozen data.

#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/usecase_ww.hpp"
#include "measure.hpp"
#include "num/stats.hpp"
#include "rt/posterior.hpp"
#include "util/clock.hpp"
#include "workloads.hpp"

namespace osprey::bench {

namespace {

using osprey::util::kDay;
using osprey::util::kHour;
using osprey::util::SimTime;

/// Weighted interval score with the median and one 95% interval:
/// (0.5|y-m| + (alpha/2) IS_alpha) / 1.5, averaged over days.
double mean_wis(const rt::RtSeries& s, const std::vector<double>& truth) {
  constexpr double kAlpha = 0.05;
  double total = 0.0;
  for (std::size_t t = 0; t < truth.size(); ++t) {
    const double y = truth[t], lo = s.lo95[t], hi = s.hi95[t];
    double interval = hi - lo;
    if (y < lo) interval += 2.0 / kAlpha * (lo - y);
    if (y > hi) interval += 2.0 / kAlpha * (y - hi);
    total += (0.5 * std::fabs(y - s.median[t]) + kAlpha / 2.0 * interval) /
             1.5;
  }
  return ratio(total, static_cast<double>(truth.size()));
}

/// Days [10, n-10) of a series: the edges are where every estimator is
/// least constrained, so they are left out of the score.
std::vector<double> mid(const std::vector<double>& v) {
  return std::vector<double>(v.begin() + 10, v.end() - 10);
}

}  // namespace

void run_ww_rt_year(const Options& options, Report& r) {
  const int horizon = options.smoke ? 70 : 224;
  const int run_days = horizon + 2;  // WastewaterUseCase::run_to_end's tail
  r.params["plants"] = osprey::util::Value(4);
  r.params["horizon_days"] = osprey::util::Value(horizon);
  r.params["poll"] = osprey::util::Value("daily");

  TimedRun run;
  core::OspreyPlatform platform;
  if (options.traced) {
    platform.tracer().set_wall_clock(&osprey::util::real_clock());
  } else {
    platform.tracer().set_enabled(false);
  }
  core::WwUseCaseConfig config;
  config.horizon_days = horizon;
  config.seed = options.seed;
  core::WastewaterUseCase usecase(platform, config);
  usecase.build();
  run.end_setup();

  // One virtual day per step: the same event order as run_to_end().
  run.run_steps(run_days, [&](int d) {
    platform.run_until(static_cast<SimTime>(d) * kDay);
  });
  run.feed_days = 4.0 * run_days;

  // --- outputs and checks ---------------------------------------------
  const aero::MetadataDb& db = platform.aero().db();
  r.check(usecase.has_aggregate(), "no ensemble R(t) was aggregated");

  Freshness fresh, agg;
  const SimTime end = static_cast<SimTime>(run_days) * kDay;
  for (std::size_t p = 0; p < usecase.generators().size(); ++p) {
    const epi::WastewaterGenerator& gen = *usecase.generators()[p];
    // Publications once the pipeline is live (the first poll day); the
    // backlog before it is picked up in one go and says nothing about
    // steady-state freshness.
    std::vector<SimTime> published;
    for (int d = config.first_poll_day; d < horizon; ++d) {
      if (gen.last_publication_day(d) == d) {
        published.push_back(static_cast<SimTime>(d) * kDay);
      }
    }
    add_freshness(fresh, published,
                  db.object(usecase.analysis_outputs()[p][0]).versions,
                  end - kDay);
    add_freshness(agg, published,
                  db.object(usecase.aggregate_outputs()[0]).versions,
                  end - kDay);
  }
  // Daily polling: every publication is analysed, and aggregated across
  // the four same-day plants, within a poll period plus an hour.
  report_lags(r, "aero.fresh_lag", fresh, kDay + kHour);
  report_lags(r, "aero.agg_lag", agg, kDay + kHour);

  if (usecase.has_aggregate()) {
    rt::RtSeries series = usecase.aggregate_output();
    std::vector<double> truth = usecase.aggregate_truth(series.days());
    r.check(series.days() > 20, "ensemble series too short to score");
    if (series.days() > 20) {
      rt::RtSeries scored{mid(series.median), mid(series.lo95),
                          mid(series.hi95)};
      const std::vector<double> y = mid(truth);
      const double rmse = num::rmse(scored.median, y);
      const double coverage = scored.coverage(y);
      r.set_work("rt.rmse", rmse);
      r.set_work("rt.wis", mean_wis(scored, y));
      r.set_work("rt.coverage95", coverage);
      // Guard rails, far outside the seed-to-seed spread: a change that
      // trades accuracy for speed fails the rep instead of winning.
      r.check(rmse < 0.25, "ensemble R(t) RMSE above 0.25");
      r.check(coverage >= 0.5, "ensemble 95% band covers under half the days");
    }
  }

  // --- per-layer --------------------------------------------------------
  const double refits_full =
      counter_value(platform.metrics(), "rt_refit_full_total");
  const double refits_warm =
      counter_value(platform.metrics(), "rt_refit_warm_total");
  r.check(refits_full == 4.0, "expected one cold refit per plant");
  r.check(refits_warm > 0.0, "no warm refits ran");
  r.set_work("rt.refits_full", refits_full);
  r.set_work("rt.refits_warm", refits_warm);
  const double events =
      static_cast<double>(platform.loop().events_processed());
  AeroTotals totals;
  totals.add(platform.aero());
  report_work(r, events, totals, run.feed_days);

  r.set_wall("obs.spans", static_cast<double>(platform.tracer().span_count()));
  if (options.traced) {
    // rt:refit-* spans are synchronous (virtual begin == end), so their
    // wall annotations are the refit's own wall time.
    std::vector<double> refit_ms;
    for (const obs::SpanRecord& span : platform.tracer().snapshot()) {
      if (span.name.rfind("rt:refit-", 0) == 0) {
        refit_ms.push_back(
            static_cast<double>(span.wall_end_ns - span.wall_begin_ns) / 1e6);
      }
    }
    double refit_total_ms = 0.0;
    for (double ms : refit_ms) refit_total_ms += ms;
    r.set_wall("rt.refit_ms_p50", quantile(refit_ms, 0.5));
    r.set_wall("rt.refit_ms_p99", quantile(refit_ms, 0.99));
    r.set_wall("rt.refit_share", ratio(refit_total_ms / 1e3, run.run_s));
    run.attributed_s = refit_total_ms / 1e3;
    report_dispatch(options, r, events, run.cpu_s);
  }
  report_end_to_end(r, run);
}

}  // namespace osprey::bench
