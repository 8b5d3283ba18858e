/// Micro-benchmarks (google-benchmark) of the substrates: throughput
/// numbers that bound how far the simulated platform scales — storage
/// puts, EMEWS task round-trips, MetaRVM steps/s, GP fit/predict
/// scaling, Saltelli throughput, the Goldstein MCMC iteration cost,
/// one warm weekly refit and its renewal recursion, the aggregation's
/// draws-CSV parse, a posterior's daily quantiles, a wastewater-feed
/// poll between publications, the SHA-256 kernels and JSON codec every
/// AERO payload goes through, one AERO publication's metadata ops, the shard coordinator's
/// handling of a week of version reports, and the serving tier's
/// per-read costs: a cached read through the front end, one event-loop
/// dispatch, and one Zipf draw.
/// End-to-end SHA-256 throughput and event-loop dispatch are also
/// osprey_bench probes (crypto.sha256_mb_per_s,
/// fabric.dispatch_ns_per_event), with a committed baseline in
/// bench/osprey_bench/baseline/.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "aero/metadata_db.hpp"
#include "aero/platform.hpp"
#include "aero/server.hpp"
#include "core/usecase_ww.hpp"
#include "core/wastewater_source.hpp"
#include "crypto/sha256.hpp"
#include "emews/task_api.hpp"
#include "emews/worker_pool.hpp"
#include "epi/kernels.hpp"
#include "epi/metarvm.hpp"
#include "epi/wastewater.hpp"
#include "fabric/event_loop.hpp"
#include "fabric/storage.hpp"
#include "gp/gp.hpp"
#include "gsa/sobol.hpp"
#include "num/rng.hpp"
#include "num/sampling.hpp"
#include "num/simd.hpp"
#include "rt/ensemble.hpp"
#include "rt/goldstein.hpp"
#include "serve/cache.hpp"
#include "serve/frontend.hpp"
#include "serve/zipf.hpp"
#include "shard/coordinator.hpp"
#include "util/thread_pool.hpp"
#include "util/value.hpp"

using namespace osprey;

static void BM_StoragePut(benchmark::State& state) {
  fabric::EventLoop loop;
  fabric::AuthService auth;
  fabric::StorageEndpoint ep("bench", loop, auth);
  std::string token = auth.issue_full_token("bench");
  ep.create_collection("c", token);
  std::string payload(4096, 'x');
  std::size_t i = 0;
  for (auto _ : state) {
    ep.put("c", "obj" + std::to_string(i++ % 1000), payload, token);
  }
}
BENCHMARK(BM_StoragePut);

static void BM_TaskRoundTrip(benchmark::State& state) {
  emews::TaskDb db;
  emews::TaskQueue queue(db, "bench");
  emews::WorkerPool pool(
      db, "bench",
      [](const util::Value& v) { return v; },
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    emews::TaskFuture f = queue.submit(util::Value(1.0));
    benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaskRoundTrip)->Arg(1)->Arg(4);

static void BM_MetaRvmRun(benchmark::State& state) {
  epi::MetaRvm model(epi::MetaRvmConfig::single_group(
      state.range(0), state.range(0) / 2000 + 1, 90));
  epi::MetaRvmParams params;
  std::uint64_t rep = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.hospitalization_qoi(params, 1, rep++));
  }
  state.SetItemsProcessed(state.iterations() * 90);  // days simulated
}
BENCHMARK(BM_MetaRvmRun)->Arg(10'000)->Arg(200'000)->Arg(2'000'000);

static void BM_WastewaterGenerate(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    epi::WastewaterGenerator gen(epi::chicago_plants()[0],
                                 epi::chicago_truths()[0],
                                 epi::WastewaterConfig{}, seed++);
    benchmark::DoNotOptimize(gen.samples().size());
  }
}
BENCHMARK(BM_WastewaterGenerate);

static void BM_GpFit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  num::RngStream rng(1);
  num::Matrix x = num::latin_hypercube(n, 5, rng);
  num::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x(i, 0) + std::sin(3.0 * x(i, 1)) + 0.1 * rng.normal();
  }
  gp::GpConfig cfg;
  cfg.mle_restarts = 0;
  cfg.mle_max_iterations = 60;
  for (auto _ : state) {
    gp::GaussianProcess gp(cfg);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpFit)->Arg(50)->Arg(100)->Arg(200);

namespace {

/// A GP conditioned on an n-point 5-D LHS with fixed hyperparameters —
/// the shared starting state of the add_point scaling cases.
osprey::gp::GaussianProcess prefit_gp(const num::Matrix& x,
                                      const num::Vector& y) {
  gp::GpConfig cfg;
  cfg.mle_restarts = 0;
  cfg.mle_max_iterations = 40;
  gp::GaussianProcess gp(cfg);
  gp.fit(x, y);
  return gp;
}

num::Matrix prefit_design(std::size_t n, num::Vector& y) {
  num::RngStream rng(1);
  num::Matrix x = num::latin_hypercube(n, 5, rng);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x(i, 0) + std::sin(3.0 * x(i, 1)) + 0.1 * rng.normal();
  }
  return x;
}

/// Appends kAdds points one at a time, each through add_point (rank-1)
/// or through update_data on the grown set (full re-factorization).
void run_gp_add_point(benchmark::State& state, bool full_refit) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kAdds = 16;
  num::Vector y0;
  num::Matrix x0 = prefit_design(n, y0);
  gp::GaussianProcess base = prefit_gp(x0, y0);
  num::RngStream rng(2);
  num::Matrix extra = num::latin_hypercube(kAdds, 5, rng);
  for (auto _ : state) {
    state.PauseTiming();
    gp::GaussianProcess gp = base;
    num::Matrix x = x0;
    num::Vector y = y0;
    state.ResumeTiming();
    for (std::size_t i = 0; i < kAdds; ++i) {
      if (!full_refit) {
        gp.add_point(extra.row(i), extra(i, 0));
        continue;
      }
      num::Matrix grown(x.rows() + 1, x.cols());
      for (std::size_t r = 0; r < x.rows(); ++r) grown.set_row(r, x.row(r));
      grown.set_row(x.rows(), extra.row(i));
      x = std::move(grown);
      y.push_back(extra(i, 0));
      gp.update_data(x, y);
    }
    benchmark::DoNotOptimize(gp.predict({0.5, 0.5, 0.5, 0.5, 0.5}).mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAdds));
}

}  // namespace

/// The MUSIC acquisition hot path: one design point appended per step.
/// Incremental = rank-1 Cholesky extension (O(n^2)); FullRefit = the
/// seed behavior (rebuild + refactorize via update_data, O(n^3) per
/// point).
static void BM_GpAddPointIncremental(benchmark::State& state) {
  run_gp_add_point(state, false);
}
BENCHMARK(BM_GpAddPointIncremental)->Arg(50)->Arg(100)->Arg(200);

static void BM_GpAddPointFullRefit(benchmark::State& state) {
  run_gp_add_point(state, true);
}
BENCHMARK(BM_GpAddPointFullRefit)->Arg(50)->Arg(100)->Arg(200);

static void BM_GpLeaveOneOut(benchmark::State& state) {
  num::Vector y;
  num::Matrix x = prefit_design(static_cast<std::size_t>(state.range(0)), y);
  gp::GaussianProcess gp = prefit_gp(x, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.leave_one_out().rmse);
  }
}
BENCHMARK(BM_GpLeaveOneOut)->Arg(100)->Arg(200);

/// Arg: n training points. 1024 rows always take the pooled path; run
/// with OSPREY_THREADS=1 for the serial comparison.
static void BM_GpPredictMean(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  num::RngStream rng(1);
  num::Matrix x = num::latin_hypercube(n, 5, rng);
  num::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = x(i, 0) + x(i, 1);
  gp::GpConfig cfg;
  cfg.mle_restarts = 0;
  cfg.mle_max_iterations = 40;
  gp::GaussianProcess gp(cfg);
  gp.fit(x, y);
  num::Matrix queries = num::latin_hypercube(1024, 5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict_mean(queries));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_GpPredictMean)->Arg(100)->Arg(200);

static void BM_SaltelliOnCheapModel(benchmark::State& state) {
  auto ranges = std::vector<num::ParamRange>{
      {"a", 0, 1}, {"b", 0, 1}, {"c", 0, 1}, {"d", 0, 1}, {"e", 0, 1}};
  gsa::ModelFn fn = [](const num::Vector& x) {
    return x[0] + 2.0 * x[1] * x[2] + x[3] - x[4];
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gsa::saltelli_indices(fn, ranges,
                              static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_SaltelliOnCheapModel)->Arg(256)->Arg(1024);

static void BM_GoldsteinMcmc(benchmark::State& state) {
  epi::Plant plant = epi::chicago_plants()[0];
  epi::WastewaterConfig ww;
  ww.days = 90;
  epi::WastewaterGenerator gen(plant, epi::chicago_truths()[0], ww, 3);
  rt::GoldsteinConfig cfg;
  cfg.iterations = static_cast<int>(state.range(0));
  cfg.burnin = cfg.iterations / 2;
  cfg.flow_liters_per_day = plant.avg_flow_mgd * 3.785e6;
  rt::GoldsteinEstimator estimator(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(gen.samples(), 90));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GoldsteinMcmc)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

/// One weekly warm refit as the wastewater use case runs it: resume a
/// chain captured at day 211 and extend it to 218 days with the use
/// case's 400-sweep / 160-burn-in update settings.
static void BM_GoldsteinWarmUpdate(benchmark::State& state) {
  const int days = 218;
  epi::Plant plant = epi::chicago_plants()[0];
  epi::WastewaterConfig ww;
  ww.days = days;
  epi::WastewaterGenerator gen(plant, epi::chicago_truths()[0], ww, 3);
  std::vector<epi::WwSample> week_before;
  for (const epi::WwSample& s : gen.samples()) {
    if (s.day < days - 7) week_before.push_back(s);
  }
  const core::WwUseCaseConfig usecase;
  rt::GoldsteinConfig cfg = usecase.goldstein;
  cfg.flow_liters_per_day = plant.avg_flow_mgd * 3.785e6;
  rt::GoldsteinEstimator estimator(cfg);
  rt::GoldsteinChainState captured;
  estimator.estimate(week_before, week_before.back().day + 1, 11, &captured);
  for (auto _ : state) {
    rt::GoldsteinChainState chain = captured;
    benchmark::DoNotOptimize(
        estimator.estimate_update(gen.samples(), days, 12, chain));
  }
  state.SetItemsProcessed(state.iterations() * cfg.update_iterations);
}
BENCHMARK(BM_GoldsteinWarmUpdate)->Unit(benchmark::kMillisecond);

/// The Goldstein sweep's renewal recursion at the warm refit's
/// 218-day horizon on one lane buffer: one live lane (arg 1), as a
/// single proposal runs, against three (arg 3), as a speculative knot
/// pair runs its common suffix.
static void BM_RenewalIncidence(benchmark::State& state) {
  const int days = 218;
  const std::vector<double> w = epi::default_generation_interval();
  const int wlen = static_cast<int>(w.size());
  const int lanes = static_cast<int>(state.range(0));
  num::RngStream rng(7);
  std::vector<num::simd::Vec2d> rt(
      static_cast<std::size_t>(days * num::simd::kRowVecs));
  std::vector<num::simd::Vec2d> inc(
      static_cast<std::size_t>((wlen + days) * num::simd::kRowVecs),
      num::simd::Vec2d{50.0, 50.0});
  for (int t = 0; t < days; ++t) {
    for (int l = 0; l < num::simd::kRowLanes; ++l) {
      num::simd::lane_set(rt.data(), t, l, 0.9 + 0.2 * rng.uniform());
    }
  }
  for (auto _ : state) {
    num::simd::renewal_lanes(rt.data(), w.data(), wlen, wlen, 0, days, lanes,
                             inc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * lanes * days);
}
BENCHMARK(BM_RenewalIncidence)->Arg(1)->Arg(3)->Unit(benchmark::kMicrosecond);

/// The warm refit's shedding convolution: the 218-day series' 94
/// samples, the suffix from sample 47 on (a mid-horizon knot's
/// proposal), read from one lane of the incidence lane buffer.
static void BM_SheddingConvolve(benchmark::State& state) {
  const int days = 218;
  epi::Plant plant = epi::chicago_plants()[0];
  epi::WastewaterConfig ww;
  ww.days = days;
  epi::WastewaterGenerator gen(plant, epi::chicago_truths()[0], ww, 3);
  std::vector<int> day;
  for (const epi::WwSample& s : gen.samples()) day.push_back(s.day);
  const std::vector<double> shed = epi::default_shedding_kernel();
  const int burnin =
      static_cast<int>(epi::default_generation_interval().size());
  num::RngStream rng(9);
  std::vector<num::simd::Vec2d> inc(
      static_cast<std::size_t>((burnin + days) * num::simd::kRowVecs));
  for (int r = 0; r < burnin + days; ++r) {
    for (int l = 0; l < num::simd::kRowLanes; ++l) {
      num::simd::lane_set(inc.data(), r, l, 20.0 + 80.0 * rng.uniform());
    }
  }
  std::vector<double> mu(day.size());
  const std::size_t from = day.size() / 2;
  for (auto _ : state) {
    num::simd::shedding_convolve(inc.data(), 2, shed.data(),
                                 static_cast<int>(shed.size()), burnin, 1.0e5,
                                 3.0e8, day.data(), from, day.size(),
                                 mu.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(day.size() - from));
}
BENCHMARK(BM_SheddingConvolve)->Unit(benchmark::kNanosecond);

/// rt-aggregate's input parse: 4 plants' published draws CSVs
/// (60 draws x 218 days each) read back into posterior matrices.
static void BM_DrawsFromCsv(benchmark::State& state) {
  std::vector<std::string> members;
  num::RngStream rng(5);
  for (int m = 0; m < 4; ++m) {
    rt::RtPosterior posterior;
    posterior.draws = num::Matrix(60, 218);
    for (double& v : posterior.draws.data()) v = 0.4 + 1.4 * rng.uniform();
    members.push_back(core::draws_to_csv(posterior, 60));
  }
  std::int64_t bytes = 0;
  for (const std::string& csv : members) {
    bytes += static_cast<std::int64_t>(csv.size());
  }
  for (auto _ : state) {
    for (const std::string& csv : members) {
      benchmark::DoNotOptimize(core::draws_from_csv(csv).draws.data().data());
    }
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_DrawsFromCsv)->Unit(benchmark::kMicrosecond);

/// One warm refit's posterior summary: the median and 95% band of each
/// day's 60 draws at 218 days (RtPosterior::summarize).
static void BM_PosteriorSummarize(benchmark::State& state) {
  rt::RtPosterior posterior;
  posterior.draws = num::Matrix(60, 218);
  num::RngStream rng(6);
  for (double& v : posterior.draws.data()) v = 0.4 + 1.4 * rng.uniform();
  for (auto _ : state) {
    rt::RtSeries series = posterior.summarize();
    benchmark::DoNotOptimize(series.median.data());
  }
  state.SetItemsProcessed(state.iterations() * 218);
}
BENCHMARK(BM_PosteriorSummarize)->Unit(benchmark::kMicrosecond);

/// The Figure-2 per-plant fan-out: 4 Goldstein chains, serially (arg 0)
/// vs fanned out on a 4-thread pool (arg 1). Posteriors are
/// bit-identical either way; only the wall clock changes.
static void BM_EnsembleEstimate4Plants(benchmark::State& state) {
  const int days = 90;
  auto plants = epi::chicago_plants();
  auto truths = epi::chicago_truths();
  epi::WastewaterConfig ww;
  ww.days = days;
  std::vector<rt::PlantData> inputs;
  for (std::size_t p = 0; p < plants.size(); ++p) {
    epi::WastewaterGenerator gen(plants[p], truths[p], ww, 100 + p);
    rt::PlantData pd;
    pd.name = plants[p].name;
    pd.population_weight = static_cast<double>(plants[p].population_served);
    pd.samples = gen.samples();
    pd.config.iterations = 1500;
    pd.config.burnin = 750;
    pd.config.flow_liters_per_day = plants[p].avg_flow_mgd * 3.785e6;
    pd.config.seed = 500 + p;
    inputs.push_back(std::move(pd));
  }
  const bool parallel = state.range(0) != 0;
  util::ThreadPool pool(parallel ? inputs.size() : 1);
  for (auto _ : state) {
    auto members =
        rt::estimate_members(inputs, days, parallel ? &pool : nullptr);
    benchmark::DoNotOptimize(members.front().posterior.draws(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs.size()));
}
BENCHMARK(BM_EnsembleEstimate4Plants)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// SHA-256 over one buffer: arg 0 picks the kernel (0 = the dispatched
// one Sha256 uses, 1 = the portable fallback), arg 1 the size in bytes.
static void BM_Sha256(benchmark::State& state) {
  const bool portable = state.range(0) != 0;
  const std::string payload(static_cast<std::size_t>(state.range(1)), 'x');
  for (auto _ : state) {
    if (portable) {
      benchmark::DoNotOptimize(crypto::detail::digest_with(
          crypto::detail::portable_blocks, payload.data(), payload.size()));
    } else {
      crypto::Sha256 h;
      h.update(payload);
      benchmark::DoNotOptimize(h.digest());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_Sha256)->ArgsProduct({{0, 1}, {64, 4096, 256 * 1024}});

/// An aggregation round as the shard coordinator posts it to the hub:
/// one {feed, uuid, version, checksum} member per feed.
static util::Value aggregate_round(int members) {
  util::ValueArray inputs;
  inputs.reserve(static_cast<std::size_t>(members));
  for (int m = 0; m < members; ++m) {
    char uuid[40];
    std::snprintf(uuid, sizeof(uuid), "%08x-0000-4000-8000-%012x",
                  static_cast<unsigned>(m * 2654435761u),
                  static_cast<unsigned>(m));
    util::ValueObject input;
    input["feed"] = util::Value("feed-" + std::to_string(m));
    input["uuid"] = util::Value(std::string(uuid));
    input["version"] = util::Value(std::int64_t{m % 13 + 1});
    input["checksum"] = util::Value(crypto::Sha256::hash_hex(uuid));
    inputs.emplace_back(std::move(input));
  }
  util::ValueObject round;
  round["campaign"] = util::Value("bench");
  round["round"] = util::Value(std::int64_t{7});
  round["inputs"] = util::Value(std::move(inputs));
  return util::Value(std::move(round));
}

static void BM_ValueToJson(benchmark::State& state) {
  const util::Value round = aggregate_round(1500);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string json = round.to_json();
    bytes = json.size();
    benchmark::DoNotOptimize(json);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ValueToJson)->Unit(benchmark::kMicrosecond);

static void BM_ValueParseJson(benchmark::State& state) {
  const std::string json = aggregate_round(1500).to_json();
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Value::parse_json(json));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(json.size()));
}
BENCHMARK(BM_ValueParseJson)->Unit(benchmark::kMicrosecond);

/// The hub's read of the same round: the round number and the member
/// count, through parse_json_members (validates all of it, builds no
/// tree).
static void BM_HubRoundRead(benchmark::State& state) {
  const std::string json = aggregate_round(1500).to_json();
  for (auto _ : state) {
    auto round = util::parse_json_members(json);
    benchmark::DoNotOptimize(round.at("round").value.as_int());
    benchmark::DoNotOptimize(round.at("inputs").size);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(json.size()));
}
BENCHMARK(BM_HubRoundRead)->Unit(benchmark::kMicrosecond);

// One AERO publication's metadata: start_run + add_version +
// finish_run. Arg 0 = no WAL hook attached, 1 = a hook that keeps the
// last operation record (the record-building cost a WAL pays, without
// the encode and append).
static void BM_MetadataDbPublishCycle(benchmark::State& state) {
  const bool hooked = state.range(0) != 0;
  util::Value last_record;
  std::unique_ptr<aero::MetadataDb> db;
  std::string in, out;
  const std::string checksum = crypto::Sha256::hash_hex("payload");
  std::int64_t cycle = 0;
  for (auto _ : state) {
    // A fresh db every 4096 cycles keeps run history (and memory)
    // bounded however many iterations the library picks.
    if (cycle % 4096 == 0) {
      state.PauseTiming();
      db = std::make_unique<aero::MetadataDb>();
      if (hooked) {
        db->set_wal_hook([&last_record](util::Value record) {
          last_record = std::move(record);
        });
      }
      in = db->register_object("feed-0/raw", "ingest-feed-0");
      out = db->register_object("feed-0/estimate", "analysis-feed-0");
      db->add_version(in, checksum, 4096, 0, "eagle", "raw", "feed-0/v1");
      state.ResumeTiming();
    }
    const util::SimTime t = cycle * 3'600'000;
    const std::uint64_t run = db->start_run(
        "analysis-feed-0", aero::FlowKind::kAnalysis, "update of " + in,
        {{in, 1}}, "bebop", t);
    const aero::DataVersion& v = db->add_version(
        out, checksum, 1024, t + 500, "eagle", "estimates", "feed-0/out");
    db->finish_run(run, aero::RunStatus::kSucceeded, {{out, v.version}},
                   t + 1000);
    benchmark::DoNotOptimize(run);
    benchmark::DoNotOptimize(last_record);
    ++cycle;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetadataDbPublishCycle)->Arg(0)->Arg(1);

// The coordinator's side of one feeds_hourly week: a 1500-member
// aggregating campaign, every member reporting one new analysis
// version, the last report completing the round that is posted to the
// hub. Items are version reports.
static void BM_CoordinatorVersionReports(benchmark::State& state) {
  constexpr int kMembers = 1500;
  shard::Coordinator coord(1);
  shard::CampaignSpec spec;
  spec.name = "bench";
  std::vector<shard::Envelope> week;
  for (int m = 0; m < kMembers; ++m) {
    shard::FeedSpec feed;
    feed.name = "bench-feed" + std::to_string(m);
    spec.feeds.push_back(feed);
    shard::VersionReport report;
    report.partition = feed.name;
    report.feed = feed.name;
    report.kind = shard::VersionKind::kAnalysis;
    report.uuid = "uuid-" + std::to_string(m);
    report.checksum = crypto::Sha256::hash_hex(std::to_string(m));
    shard::Envelope env;
    env.origin = static_cast<std::uint32_t>(m + 1);
    env.body = std::move(report);
    week.push_back(std::move(env));
  }
  coord.register_campaign(spec);
  coord.collect();
  int version = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ++version;
    for (shard::Envelope& env : week) {
      env.tick = static_cast<std::uint64_t>(version);
      std::get<shard::VersionReport>(env.body).version = version;
    }
    state.ResumeTiming();
    coord.begin_tick(static_cast<std::uint64_t>(version),
                     static_cast<std::uint64_t>(version) * 1000);
    coord.deliver(week);
    benchmark::DoNotOptimize(coord.collect());
  }
  if (coord.rounds_dispatched("bench") !=
      static_cast<std::uint64_t>(version)) {
    state.SkipWithError("expected one round per week");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kMembers);
}
BENCHMARK(BM_CoordinatorVersionReports)->Unit(benchmark::kMicrosecond);

/// One cached dashboard read: FrontEnd::submit on an idle server plus
/// the completion event that answers it, on a warmed cache (both
/// response buffers already hold the estimate). Requests are built in
/// batches outside the timed region, so only the serving tier and the
/// loop are measured. Items are reads.
static void BM_FrontEndHit(benchmark::State& state) {
  constexpr int kBatch = 256;
  fabric::EventLoop loop;
  fabric::AuthService auth;
  fabric::TimerService timers(loop, auth);
  fabric::TransferService transfers(loop, auth);
  fabric::FlowsService flows(loop, auth);
  aero::AeroServer server(loop, auth, timers, transfers, flows, "aero",
                          nullptr);
  const std::string uuid = server.db().register_object("qoi/rt", "qoi-0");
  server.db().add_version(uuid, crypto::Sha256::hash_hex("payload"), 4096, 0,
                          "eagle", "data", "qoi/0/rt-v1");
  obs::MetricsRegistry metrics;
  serve::ResultCache cache(server, metrics);
  serve::FrontEnd frontend(loop, auth, cache, metrics);
  const serve::ServeRequest request{
      uuid, auth.issue_token("dashboards", {fabric::scopes::kServe}),
      "dashboards"};
  std::uint64_t answered = 0;
  const serve::FrontEnd::Callback done =
      [&answered](const serve::ServeResponse&) { ++answered; };
  for (int i = 0; i < 3; ++i) {  // a miss, then a hit into each buffer
    frontend.submit(request, done);
    loop.run_all();
  }
  std::vector<serve::ServeRequest> batch;
  for (auto _ : state) {
    state.PauseTiming();
    batch.assign(kBatch, request);
    state.ResumeTiming();
    for (serve::ServeRequest& r : batch) {
      frontend.submit(std::move(r), done);
      loop.run_all();
    }
  }
  if (answered != 3 + static_cast<std::uint64_t>(state.iterations()) * kBatch ||
      cache.misses() != 1) {
    state.SkipWithError("expected every timed read to be answered by a hit");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_FrontEndHit);

/// Event dispatch with 60 events pending: 60 self-re-arming events,
/// one due each virtual ms, so every fired event schedules its
/// successor. One iteration runs 60 ms of virtual time. Items are
/// events (a fire plus a schedule).
static void BM_EventLoopDispatch(benchmark::State& state) {
  constexpr int kPending = 60;
  struct Chain {
    fabric::EventLoop loop;
    std::int64_t fired = 0;
    fabric::EventLoop::Callback tick;
  } chain;
  // Captures one pointer, so every copy stays in std::function's buffer.
  chain.tick = [c = &chain] {
    ++c->fired;
    c->loop.schedule_after(kPending, c->tick);
  };
  for (int i = 0; i < kPending; ++i) chain.loop.schedule_at(i, chain.tick);
  for (auto _ : state) chain.loop.run_until(chain.loop.now() + kPending);
  if (chain.loop.pending() != kPending) {
    state.SkipWithError("expected 60 events pending throughout");
  }
  state.SetItemsProcessed(chain.fired);
}
BENCHMARK(BM_EventLoopDispatch);

/// AERO's unchanged poll: one OspreyPlatform (untraced) hosting one
/// hourly ingestion whose source published once, before the timed
/// region. One iteration runs 64 virtual hours: 64 timer firings, each
/// a fetch that hands back the buffer already seen. Items are polls.
static void BM_UnchangedPoll(benchmark::State& state) {
  constexpr int kPolls = 64;
  aero::OspreyPlatform platform("aero", 0xAE70, /*tracing=*/false);
  aero::AeroServer& server = platform.aero();
  fabric::StorageEndpoint& eagle = platform.add_storage_endpoint("eagle");
  fabric::StorageEndpoint& scratch = platform.add_storage_endpoint("scratch");
  fabric::ComputeEndpoint& login = platform.add_login_endpoint("login", 2);
  eagle.create_collection("data", server.token());
  scratch.create_collection("staging", server.token());
  aero::IngestionFlowSpec spec;
  spec.name = "ingest-feed";
  spec.source = std::make_shared<aero::ScriptedSource>(
      "https://feeds/feed",
      std::vector<std::pair<util::SimTime, std::string>>{{0, "day,value\n"}});
  spec.poll_period = util::kHour;
  spec.compute = &login;
  spec.function_id = login.register_function(
      "transform",
      [](const util::Value& args) {
        util::ValueObject out;
        out["output"] = args.at("input");
        return util::Value(std::move(out));
      },
      30 * util::kSecond);
  spec.staging = &scratch;
  spec.staging_collection = "staging";
  spec.storage = &eagle;
  spec.collection = "data";
  spec.base_path = "feed";
  server.register_ingestion(std::move(spec));
  fabric::EventLoop& loop = platform.loop();
  loop.run_until(util::kHour - 1);  // the first poll and its flow run
  const std::uint64_t polls0 = server.polls();
  for (auto _ : state) loop.run_until(loop.now() + kPolls * util::kHour);
  if (server.ingestion_runs() != 1 ||
      server.polls() - polls0 !=
          static_cast<std::uint64_t>(state.iterations()) * kPolls) {
    state.SkipWithError("expected only unchanged polls in the timed region");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(server.polls() - polls0));
}
BENCHMARK(BM_UnchangedPoll);

/// A daily poll of one plant's wastewater feed on a day with no new
/// publication: day 220 of a 224-day horizon, whose last publication
/// (day 217, 94 samples) an earlier poll already fetched.
static void BM_WastewaterSourceFetch(benchmark::State& state) {
  epi::WastewaterConfig ww;
  ww.days = 224;
  core::WastewaterSource source(std::make_shared<epi::WastewaterGenerator>(
      epi::chicago_plants()[0], epi::chicago_truths()[0], ww, 1));
  const util::SimTime day217 = 217 * util::kDay;
  const util::SimTime day220 = 220 * util::kDay;
  const std::shared_ptr<const std::string> published = source.fetch(day217);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.fetch(day220).get());
  }
  if (published == nullptr || *source.fetch(day220) != *published) {
    state.SkipWithError("expected the day-217 publication on day 220");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WastewaterSourceFetch);

/// One Zipf(1.0) draw over the 96 objects serve_flood reads.
static void BM_ZipfItem(benchmark::State& state) {
  const serve::ZipfTrace zipf(96, 1.0, 1);
  std::uint64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(zipf.item(i++));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfItem);

BENCHMARK_MAIN();
