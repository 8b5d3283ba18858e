/// Integration tests: both paper use cases end-to-end on the platform,
/// at reduced scale so they run in seconds.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/usecase_gsa.hpp"
#include "core/usecase_ww.hpp"
#include "num/rng.hpp"
#include "num/stats.hpp"
#include "obs/export.hpp"
#include "util/clock.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

namespace oc = osprey::core;
namespace on = osprey::num;
namespace oo = osprey::obs;
namespace ou = osprey::util;

namespace {

oc::WwUseCaseConfig small_ww_config() {
  oc::WwUseCaseConfig cfg;
  cfg.horizon_days = 70;
  cfg.first_poll_day = 28;
  cfg.goldstein.iterations = 800;
  cfg.goldstein.burnin = 400;
  cfg.goldstein.thin = 4;
  cfg.aggregate_draws = 50;
  cfg.seed = 7;
  return cfg;
}

/// Everything one seeded run publishes and records, as bytes.
struct WwRunBytes {
  std::string versions;  // every version of every object, with its bytes
  std::string metrics_json;
  std::string metrics_prom;
  std::string trace;  // Chrome trace, wall annotations cleared
  std::uint64_t python = 0, julia = 0, r = 0;
  std::size_t refits = 0;
  /// Most rt:refit spans in flight at one real instant (wall time from
  /// a refit's start on the loop to the end of its chain on the pool).
  int max_refits_in_flight = 0;
};

WwRunBytes run_ww_capture() {
  oc::OspreyPlatform platform;
  platform.tracer().set_wall_clock(&ou::real_clock());
  oc::WastewaterUseCase usecase(platform, small_ww_config());
  usecase.build();
  usecase.run_to_end();

  WwRunBytes out;
  const auto& db = platform.aero().db();
  const oc::OspreyPlatform& ro = platform;
  std::vector<std::string> uuids = db.object_uuids();
  std::sort(uuids.begin(), uuids.end());
  for (const std::string& uuid : uuids) {
    for (const auto& v : db.object(uuid).versions) {
      out.versions += uuid + " v" + std::to_string(v.version) + " " +
                      v.checksum + " " + std::to_string(v.timestamp) + " " +
                      v.path + "\n";
      const auto& ep = ro.storage_endpoint(v.endpoint);
      if (ep.exists(v.collection, v.path)) {
        out.versions +=
            ep.get(v.collection, v.path, platform.aero().token()).bytes;
      }
    }
  }
  out.metrics_json = platform.metrics().snapshot().to_json();
  out.metrics_prom = oo::prometheus_text(platform.metrics());

  std::vector<oo::SpanRecord> spans = platform.tracer().snapshot();
  std::vector<std::pair<std::uint64_t, int>> edges;  // (wall ns, +1/-1)
  for (oo::SpanRecord& span : spans) {
    if (span.name.rfind("rt:refit-", 0) == 0) {
      ++out.refits;
      edges.emplace_back(span.wall_begin_ns, +1);
      edges.emplace_back(span.wall_end_ns, -1);
    }
    span.wall_begin_ns = 0;
    span.wall_end_ns = 0;
  }
  std::sort(edges.begin(), edges.end());  // an end before a same-ns begin
  int in_flight = 0;
  for (const auto& [ns, delta] : edges) {
    in_flight += delta;
    out.max_refits_in_flight = std::max(out.max_refits_in_flight, in_flight);
  }
  out.trace = oo::chrome_trace_json(spans);

  const oc::HarnessRegistry& registry = usecase.harnesses();
  out.python = registry.invocations_by(oc::Language::kPython);
  out.julia = registry.invocations_by(oc::Language::kJulia);
  out.r = registry.invocations_by(oc::Language::kR);
  return out;
}

/// The CsvTable-based writers the direct writers replaced.
std::string series_to_csv_via_table(const osprey::rt::RtSeries& series) {
  ou::CsvTable table({"day", "median", "lo95", "hi95"});
  for (std::size_t t = 0; t < series.days(); ++t) {
    table.add_row({std::to_string(t), ou::format("%.6f", series.median[t]),
                   ou::format("%.6f", series.lo95[t]),
                   ou::format("%.6f", series.hi95[t])});
  }
  return table.to_string();
}

std::string draws_to_csv_via_table(const osprey::rt::RtPosterior& posterior,
                                   int max_draws) {
  std::vector<std::string> header;
  for (std::size_t t = 0; t < posterior.days(); ++t) {
    header.push_back("d" + std::to_string(t));
  }
  ou::CsvTable table(header);
  const std::size_t n = std::min<std::size_t>(
      posterior.n_draws(), static_cast<std::size_t>(max_draws));
  for (std::size_t d = 0; d < n; ++d) {
    std::vector<std::string> row;
    for (std::size_t t = 0; t < posterior.days(); ++t) {
      row.push_back(ou::format("%.5f", posterior.draws(d, t)));
    }
    table.add_row(std::move(row));
  }
  return table.to_string();
}

}  // namespace

TEST(WastewaterCsv, DirectWritersMatchTableWritersByteForByte) {
  on::RngStream rng(20251018);
  osprey::rt::RtPosterior posterior;
  posterior.draws = on::Matrix(300, 120);
  for (std::size_t d = 0; d < posterior.n_draws(); ++d) {
    for (std::size_t t = 0; t < posterior.days(); ++t) {
      // R(t)-like values plus the edges a printf writer must survive.
      posterior.draws(d, t) = 0.2 + 2.5 * rng.uniform();
    }
  }
  posterior.draws(0, 0) = -0.0;
  posterior.draws(0, 1) = 1e12;
  posterior.draws(0, 2) = 5e-6;  // rounds at the fifth decimal
  posterior.draws(1, 0) = 1e300;  // wider than any fixed buffer
  for (int max_draws : {-1, 0, 1, 200, 1000}) {
    EXPECT_EQ(oc::draws_to_csv(posterior, max_draws),
              draws_to_csv_via_table(posterior, max_draws))
        << max_draws;
  }
  const osprey::rt::RtSeries series = posterior.summarize();
  EXPECT_EQ(oc::series_to_csv(series), series_to_csv_via_table(series));
  EXPECT_EQ(oc::series_to_csv(osprey::rt::RtSeries{}),
            series_to_csv_via_table(osprey::rt::RtSeries{}));
}

TEST(WastewaterUseCase, ConcurrentRefitsReplayByteIdentically) {
  const WwRunBytes a = run_ww_capture();
  const WwRunBytes b = run_ww_capture();
  // Refits of different plants were in flight at the same real time.
  EXPECT_GE(a.max_refits_in_flight, 2);
  EXPECT_GE(b.max_refits_in_flight, 2);
  EXPECT_EQ(a.versions, b.versions);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.metrics_prom, b.metrics_prom);
  EXPECT_EQ(a.trace, b.trace);
  // The counts the inline Python -> Julia + R composition makes: 6
  // publications x 4 plants, each one ww-transform (Python) and one
  // rt-analysis-harness (Python) running rt-estimate (Julia) and rt-plot
  // (R); 6 aggregations, each one aggregate-harness (Python) running
  // rt-aggregate and rt-plot (R).
  const std::uint64_t analyses = 4 * 6, aggregations = 6;
  EXPECT_EQ(a.refits, analyses);
  EXPECT_EQ(a.julia, analyses);
  EXPECT_EQ(a.python, analyses + analyses + aggregations);
  EXPECT_EQ(a.r, analyses + 2 * aggregations);
  EXPECT_EQ(b.python, a.python);
  EXPECT_EQ(b.julia, a.julia);
  EXPECT_EQ(b.r, a.r);
}

TEST(WastewaterUseCase, EndToEndPipelineProducesAllOutputs) {
  oc::OspreyPlatform platform;
  oc::WastewaterUseCase usecase(platform, small_ww_config());
  usecase.build();
  usecase.run_to_end();

  const auto& aero = platform.aero();
  // Exact, deterministic event accounting: polling runs daily from day
  // 28; weekly publications observable within the 70-day feed fall on
  // days 28, 35, 42, 49, 56, 63 -> 6 updates per plant. Each triggers
  // one ingestion + one analysis run; the ALL-policy aggregation fires
  // once per complete publication round.
  const std::uint64_t kPublications = 6;
  EXPECT_EQ(aero.updates_detected(), 4 * kPublications);
  EXPECT_EQ(aero.ingestion_runs(), 4 * kPublications);
  EXPECT_EQ(aero.analysis_runs(), 4 * kPublications + kPublications);
  EXPECT_EQ(aero.failed_runs(), 0u);

  // Per-plant estimates exist and track the truth reasonably.
  auto outputs = usecase.plant_outputs();
  ASSERT_EQ(outputs.size(), 4u);
  for (const auto& po : outputs) {
    EXPECT_GT(po.versions, 0);
    ASSERT_GT(po.series.days(), 30u);
    std::vector<double> est(po.series.median.begin() + 7,
                            po.series.median.end() - 7);
    std::vector<double> truth(po.truth.begin() + 7, po.truth.end() - 7);
    EXPECT_LT(on::rmse(est, truth), 0.35) << po.plant.name;
    // 95% band covers a decent share of truth days.
    EXPECT_GT(po.series.coverage(po.truth), 0.5) << po.plant.name;
  }

  // The population-weighted aggregate exists.
  ASSERT_TRUE(usecase.has_aggregate());
  auto agg = usecase.aggregate_output();
  EXPECT_GT(agg.days(), 30u);
  std::vector<double> agg_truth = usecase.aggregate_truth(agg.days());
  std::vector<double> agg_mid(agg.median.begin() + 7, agg.median.end() - 7);
  std::vector<double> truth_mid(agg_truth.begin() + 7, agg_truth.end() - 7);
  EXPECT_LT(on::rmse(agg_mid, truth_mid), 0.3);
}

TEST(WastewaterUseCase, MultiLanguageHarnessesAllInvoked) {
  oc::OspreyPlatform platform;
  oc::WastewaterUseCase usecase(platform, small_ww_config());
  usecase.build();
  usecase.run_to_end();
  auto& registry = usecase.harnesses();
  EXPECT_GT(registry.invocations_by(oc::Language::kPython), 0u);
  EXPECT_GT(registry.invocations_by(oc::Language::kJulia), 0u);
  EXPECT_GT(registry.invocations_by(oc::Language::kR), 0u);
}

TEST(WastewaterUseCase, PayloadsStayOffTheAeroServer) {
  oc::OspreyPlatform platform;
  oc::WastewaterUseCase usecase(platform, small_ww_config());
  usecase.build();
  usecase.run_to_end();
  // Every metadata version matches an object on a storage endpoint.
  const auto& db = platform.aero().db();
  for (const std::string& uuid : db.object_uuids()) {
    auto ver = db.latest_version(uuid);
    if (!ver.has_value()) continue;
    const auto& ep = platform.storage_endpoint(ver->endpoint);
    EXPECT_TRUE(ep.exists(ver->collection, ver->path)) << uuid;
    const auto& obj =
        ep.get(ver->collection, ver->path, platform.aero().token());
    EXPECT_EQ(obj.checksum, ver->checksum);
    EXPECT_EQ(obj.bytes.size(), ver->size_bytes);
  }
}

TEST(WastewaterUseCase, StakeholderHasReadAccess) {
  oc::OspreyPlatform platform;
  oc::WastewaterUseCase usecase(platform, small_ww_config());
  usecase.build();
  usecase.run_to_end();
  // Outputs are shareable via collection permissions (paper §2.2).
  std::string stakeholder_token =
      platform.issue_token("public-health-stakeholder");
  auto& eagle = platform.storage_endpoint(oc::WastewaterUseCase::kStorageName);
  auto listing = eagle.list(oc::WastewaterUseCase::kCollection, "rt/",
                            stakeholder_token);
  EXPECT_GE(listing.size(), 12u);  // 3 outputs x 4 plants
  EXPECT_NO_THROW(
      eagle.get(oc::WastewaterUseCase::kCollection, listing[0],
                stakeholder_token));
  // ... but no write access.
  EXPECT_THROW(eagle.put(oc::WastewaterUseCase::kCollection, "rogue", "x",
                         stakeholder_token),
               ou::AuthError);
}

TEST(GsaUseCase, InterleavedReplicatesProduceTrajectories) {
  oc::OspreyPlatform platform;
  oc::GsaUseCaseConfig cfg;
  cfg.n_replicates = 3;
  cfg.n_workers = 2;
  cfg.music.n_init = 10;
  cfg.music.n_total = 18;
  cfg.music.surrogate_mc_n = 256;
  cfg.music.n_candidates = 50;
  cfg.music.gp.mle_restarts = 0;
  cfg.music.gp.mle_max_iterations = 60;
  cfg.model = osprey::epi::MetaRvmConfig::single_group(50000, 25, 60);
  oc::GsaUseCase usecase(platform, cfg);
  oc::GsaUseCaseResult result = usecase.run();

  ASSERT_EQ(result.replicates.size(), 3u);
  EXPECT_EQ(result.tasks_evaluated, 3u * 18u);
  for (const auto& rep : result.replicates) {
    EXPECT_EQ(rep.evaluations, 18u);
    ASSERT_FALSE(rep.trajectory.empty());
    for (double s1 : rep.final_s1) {
      EXPECT_GE(s1, 0.0);
      EXPECT_LE(s1, 1.0);
    }
    // ts should matter more than phd for total hospitalizations.
    EXPECT_GT(rep.final_s1[0], rep.final_s1[4]);
  }
  EXPECT_GT(result.driver_polls, 0u);
  // The scheduler-launched pool path was used.
  EXPECT_EQ(platform.scheduler("improv-pbs").jobs().size(), 1u);
}

TEST(GsaUseCase, DirectPoolPathAlsoWorks) {
  oc::OspreyPlatform platform;
  oc::GsaUseCaseConfig cfg;
  cfg.launch_via_scheduler = false;
  cfg.n_replicates = 2;
  cfg.n_workers = 2;
  cfg.music.n_init = 8;
  cfg.music.n_total = 12;
  cfg.music.surrogate_mc_n = 128;
  cfg.music.n_candidates = 30;
  cfg.music.gp.mle_restarts = 0;
  cfg.music.gp.mle_max_iterations = 40;
  cfg.model = osprey::epi::MetaRvmConfig::single_group(30000, 20, 45);
  oc::GsaUseCase usecase(platform, cfg);
  oc::GsaUseCaseResult result = usecase.run();
  EXPECT_EQ(result.replicates.size(), 2u);
  EXPECT_EQ(result.tasks_evaluated, 2u * 12u);
}

TEST(GsaUseCase, ReplicatesDifferButAreInternallyDeterministic) {
  auto run_once = [] {
    oc::OspreyPlatform platform;
    oc::GsaUseCaseConfig cfg;
    cfg.launch_via_scheduler = false;
    cfg.n_replicates = 2;
    cfg.n_workers = 2;
    cfg.music.n_init = 8;
    cfg.music.n_total = 12;
    cfg.music.surrogate_mc_n = 128;
    cfg.music.n_candidates = 30;
    cfg.music.gp.mle_restarts = 0;
    cfg.music.gp.mle_max_iterations = 40;
    cfg.model = osprey::epi::MetaRvmConfig::single_group(30000, 20, 45);
    return oc::GsaUseCase(platform, cfg).run();
  };
  oc::GsaUseCaseResult a = run_once();
  oc::GsaUseCaseResult b = run_once();
  // Cross-replicate: different random streams -> different trajectories.
  EXPECT_NE(a.replicates[0].final_s1, a.replicates[1].final_s1);
  // Re-running the whole workflow reproduces results exactly, despite
  // the multi-threaded pool (every evaluation is (x, replicate)-pure).
  for (std::size_t r = 0; r < 2; ++r) {
    ASSERT_EQ(a.replicates[r].trajectory.size(),
              b.replicates[r].trajectory.size());
    EXPECT_EQ(a.replicates[r].final_s1, b.replicates[r].final_s1);
  }
}
