#include "core/usecase_ww.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "num/rng.hpp"
#include "num/stats.hpp"
#include "rt/ensemble.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/string_util.hpp"

namespace osprey::core {

using osprey::util::CsvTable;
using osprey::util::Value;
using osprey::util::ValueObject;

namespace {

std::vector<epi::WwSample> parse_samples(const std::string& csv) {
  CsvTable table = CsvTable::parse(csv);
  std::vector<epi::WwSample> out;
  out.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    epi::WwSample s;
    s.day = static_cast<int>(table.cell_double(r, "day"));
    s.concentration = table.cell_double(r, "concentration_gc_per_l");
    out.push_back(s);
  }
  return out;
}

rt::RtSeries csv_to_series(const std::string& csv) {
  CsvTable table = CsvTable::parse(csv);
  rt::RtSeries s;
  s.median = table.column_doubles("median");
  s.lo95 = table.column_doubles("lo95");
  s.hi95 = table.column_doubles("hi95");
  return s;
}

rt::RtPosterior csv_to_posterior(const std::string& csv) {
  CsvTable table = CsvTable::parse(csv);
  rt::RtPosterior out;
  out.draws = osprey::num::Matrix(table.num_rows(), table.num_cols());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const auto& row = table.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      out.draws(r, c) = std::strtod(row[c].c_str(), nullptr);
    }
  }
  return out;
}

/// Tiny ASCII rendition of a series — the stand-in for the R-generated
/// plot artifacts the paper's workflow stores.
std::string ascii_plot(const rt::RtSeries& series, const std::string& title) {
  static const char* levels = " .:-=+*#%@";
  std::string out = "plot: " + title + "\n";
  double lo = 1e300, hi = -1e300;
  for (double m : series.median) {
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  double span = std::max(hi - lo, 1e-9);
  for (std::size_t t = 0; t < series.days(); ++t) {
    int lvl = static_cast<int>((series.median[t] - lo) / span * 9.0);
    out += levels[std::clamp(lvl, 0, 9)];
  }
  out += osprey::util::format("\nrange [%.2f, %.2f] over %zu days\n", lo, hi,
                              series.days());
  return out;
}

/// Appends `v` printed as "%.<precision>f".
void append_fixed(std::string& out, double v, int precision) {
  char buf[48];
  const int len = std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  if (len >= 0 && static_cast<std::size_t>(len) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(len));
  } else {
    out += osprey::util::format("%.*f", precision, v);  // huge magnitudes
  }
}

/// The horizon a refit over `samples` estimates: through the last
/// sampled day.
int refit_days(const std::vector<epi::WwSample>& samples) {
  OSPREY_REQUIRE(samples.size() >= 4, "not enough samples yet");
  return samples.back().day + 1;
}

/// Whether a refit over `days` resumes the plant's chain (a warm
/// update) rather than refitting cold: only online, from a valid state,
/// and never when the horizon moved backwards.
bool warm_refit(const rt::GoldsteinChainState& state, int days,
                bool online) {
  return online && state.valid() && days >= state.days;
}

}  // namespace

std::string series_to_csv(const rt::RtSeries& series) {
  std::string out = "day,median,lo95,hi95\n";
  out.reserve(out.size() + series.days() * 36);
  for (std::size_t t = 0; t < series.days(); ++t) {
    out += std::to_string(t);
    for (double v : {series.median[t], series.lo95[t], series.hi95[t]}) {
      out += ',';
      append_fixed(out, v, 6);
    }
    out += '\n';
  }
  return out;
}

std::string draws_to_csv(const rt::RtPosterior& posterior, int max_draws) {
  const std::size_t days = posterior.days();
  const std::size_t n = std::min<std::size_t>(
      posterior.n_draws(), static_cast<std::size_t>(max_draws));
  std::string out;
  out.reserve((n + 1) * (days * 9 + 1));  // "x.xxxxx," per cell
  for (std::size_t t = 0; t < days; ++t) {
    if (t > 0) out += ',';
    out += 'd';
    out += std::to_string(t);
  }
  out += '\n';
  for (std::size_t d = 0; d < n; ++d) {
    for (std::size_t t = 0; t < days; ++t) {
      if (t > 0) out += ',';
      append_fixed(out, posterior.draws(d, t), 5);
    }
    out += '\n';
  }
  return out;
}

/// Per-plant Goldstein chain states, keyed by the plant's chain seed.
/// The registry lock covers only finding or inserting a plant; each
/// plant's state has its own lock, held for a whole refit, so refits of
/// different plants run side by side. std::map nodes never move, so a
/// plant's entry stays valid after the registry lock is released.
struct WastewaterUseCase::ChainRegistry {
  struct Plant {
    osprey::util::Mutex mutex;
    rt::GoldsteinChainState state OSPREY_GUARDED_BY(mutex);
  };

  Plant& plant(std::uint64_t seed) {
    osprey::util::MutexLock lock(mutex);
    return plants[seed];
  }

  osprey::util::Mutex mutex;
  std::map<std::uint64_t, Plant> plants OSPREY_GUARDED_BY(mutex);
};

WastewaterUseCase::WastewaterUseCase(OspreyPlatform& platform,
                                     WwUseCaseConfig config)
    : platform_(platform),
      config_(std::move(config)),
      harnesses_(std::make_shared<HarnessRegistry>()),
      chains_(std::make_shared<ChainRegistry>()) {
  OSPREY_REQUIRE(config_.horizon_days > config_.first_poll_day,
                 "horizon must extend past the first poll");
}

void WastewaterUseCase::register_harnesses() {
  // Julia: the Goldstein R(t) estimation. Chain states are keyed by
  // the per-plant chain seed and shared across invocations — the first
  // fit for a plant is a cold full refit that seeds the state, and
  // every later per-sample trigger resumes from it with a capped
  // iteration budget (bounded time-to-fresh-R(t)). It runs on a pool
  // thread: the chain mode, the span and its sim time come from
  // prepare_refit in args["refit"].
  rt::GoldsteinConfig gconf = config_.goldstein;
  int aggregate_draws = config_.aggregate_draws;
  const bool online = config_.online_updates;
  HarnessRegistry& harnesses = *harnesses_;
  harnesses.add(
      "rt-estimate", Language::kJulia,
      "semiparametric Bayesian R(t) estimation from wastewater (Goldstein)",
      [gconf, aggregate_draws, online, chains = chains_,
       tracer = &platform_.tracer()](const Value& args) -> Value {
        std::vector<epi::WwSample> samples =
            parse_samples(args.at("csv").as_string());
        const int days = refit_days(samples);
        rt::GoldsteinConfig conf = gconf;
        conf.flow_liters_per_day = args.at("flow_liters").as_double();
        conf.seed = static_cast<std::uint64_t>(args.at("seed").as_int());
        rt::GoldsteinEstimator estimator(conf);
        const Value& refit = args.at("refit");
        const bool warm = refit.at("warm").as_bool();

        ChainRegistry::Plant& plant = chains->plant(conf.seed);
        osprey::util::MutexLock lock(plant.mutex);
        rt::GoldsteinChainState& state = plant.state;
        // AERO runs one analysis per flow at a time, so the state is the
        // one prepare_refit saw.
        OSPREY_CHECK(warm == warm_refit(state, days, online),
                     "refits of one plant overlapped");
        rt::RtPosterior posterior;
        if (warm) {
          // Each warm update draws its chain seed from the plant's
          // stream indexed by lineage position, so the online sequence
          // is reproducible yet never reuses a seed.
          std::uint64_t update_seed = osprey::num::RngStream(conf.seed)
                                          .substream(state.updates + 1)
                                          .next_u64();
          posterior =
              estimator.estimate_update(samples, days, update_seed, state);
        } else {
          posterior = estimator.estimate(samples, days, conf.seed, &state);
        }
        tracer->end_span(
            static_cast<obs::SpanId>(refit.at("span").as_int()),
            static_cast<std::uint64_t>(refit.at("at_ns").as_int()), true,
            std::to_string(days) + " days");

        CsvTable meta({"mode", "lineage_updates", "state_days",
                       "acceptance", "acceptance_burnin",
                       "acceptance_sampling"});
        meta.add_row(
            {warm ? "warm" : "full", std::to_string(state.updates),
             std::to_string(state.days),
             osprey::util::format("%.4f", posterior.acceptance_rate),
             osprey::util::format("%.4f", posterior.acceptance_rate_burnin),
             osprey::util::format("%.4f",
                                  posterior.acceptance_rate_sampling)});

        ValueObject out;
        out["summary_csv"] = Value(series_to_csv(posterior.summarize()));
        out["draws_csv"] = Value(draws_to_csv(posterior, aggregate_draws));
        out["acceptance"] = Value(posterior.acceptance_rate);
        out["acceptance_burnin"] = Value(posterior.acceptance_rate_burnin);
        out["acceptance_sampling"] =
            Value(posterior.acceptance_rate_sampling);
        out["meta_csv"] = Value(meta.to_string());
        return Value(std::move(out));
      });

  // R: plotting of a summary series.
  harnesses.add("rt-plot", Language::kR,
                "R(t) plot generation from the estimation summary",
                [](const Value& args) -> Value {
                  rt::RtSeries s =
                      csv_to_series(args.at("summary_csv").as_string());
                  ValueObject out;
                  out["plot"] =
                      Value(ascii_plot(s, args.at("title").as_string()));
                  return Value(std::move(out));
                });

  // Python: the data validation/transformation of the ingestion flows.
  // Data-quality curation (§1 goal 2, "ensuring data quality"): drop
  // non-positive/non-finite readings, and flag gross outliers (>5 robust
  // MADs from the running median on the log scale — lab errors, not
  // epidemiology).
  harnesses.add(
      "ww-transform", Language::kPython,
      "validate and transform raw IWSS concentrations",
      [](const Value& args) -> Value {
        CsvTable raw = CsvTable::parse(args.at("input").as_string());
        // First pass: collect valid log-concentrations.
        std::vector<double> logs;
        for (std::size_t r = 0; r < raw.num_rows(); ++r) {
          double c = raw.cell_double(r, "concentration_gc_per_l");
          if (c > 0.0 && std::isfinite(c)) logs.push_back(std::log10(c));
        }
        double center = logs.empty() ? 0.0 : osprey::num::median(logs);
        std::vector<double> dev;
        dev.reserve(logs.size());
        for (double v : logs) dev.push_back(std::fabs(v - center));
        double mad = dev.empty() ? 0.0 : osprey::num::median(dev);
        double cutoff = 5.0 * std::max(mad, 0.05);  // floor avoids 0-MAD

        CsvTable out({"day", "plant", "concentration_gc_per_l",
                      "log10_concentration"});
        std::size_t dropped = 0;
        for (std::size_t r = 0; r < raw.num_rows(); ++r) {
          double c = raw.cell_double(r, "concentration_gc_per_l");
          if (!(c > 0.0) || !std::isfinite(c)) {
            ++dropped;
            continue;  // validation
          }
          if (std::fabs(std::log10(c) - center) > cutoff) {
            ++dropped;
            continue;  // gross outlier
          }
          out.add_row({raw.cell(r, "day"), raw.cell(r, "plant"),
                       raw.cell(r, "concentration_gc_per_l"),
                       osprey::util::format("%.5f", std::log10(c))});
        }
        ValueObject result;
        result["output"] = Value(out.to_string());
        result["dropped"] = Value(static_cast<std::int64_t>(dropped));
        return Value(std::move(result));
      });

  // Python harness composing the Julia estimation with the R plot — the
  // paper's "Python code harness function ... executes a Julia code R(t)
  // estimation and then executes R code to create the R(t) plots".
  harnesses.add(
      "rt-analysis-harness", Language::kPython,
      "analysis-flow harness: Julia estimation + R plots",
      [&harnesses](const Value& args) -> Value {
        const ValueObject& inputs = args.at("inputs").as_object();
        OSPREY_REQUIRE(inputs.size() == 1, "expected one transformed input");
        const Value& user_args = args.at("args");
        ValueObject estimate_args;
        estimate_args["csv"] = inputs.begin()->second;
        estimate_args["flow_liters"] = user_args.at("flow_liters");
        estimate_args["seed"] = user_args.at("seed");
        estimate_args["refit"] = args.at("refit");
        Value est = harnesses.invoke("rt-estimate",
                                     Value(std::move(estimate_args)));
        ValueObject plot_args;
        plot_args["summary_csv"] = est.at("summary_csv");
        plot_args["title"] = user_args.at("plant");
        Value plot = harnesses.invoke("rt-plot", Value(std::move(plot_args)));
        // Move, not copy: several plants' chains hold their draws at once.
        ValueObject& fields = est.as_object();
        ValueObject outputs;
        outputs["rt_summary.csv"] = std::move(fields.at("summary_csv"));
        outputs["rt_draws.csv"] = std::move(fields.at("draws_csv"));
        outputs["rt_plot.txt"] = std::move(plot.as_object().at("plot"));
        outputs["rt_meta.csv"] = std::move(fields.at("meta_csv"));
        ValueObject result;
        result["outputs"] = Value(std::move(outputs));
        result["acceptance_burnin"] = fields.at("acceptance_burnin");
        result["acceptance_sampling"] = fields.at("acceptance_sampling");
        return Value(std::move(result));
      });

  // R: the population-weighted ensemble aggregation.
  harnesses.add(
      "rt-aggregate", Language::kR,
      "population-weighted ensemble R(t) across plants",
      [](const Value& args) -> Value {
        const ValueObject& draws = args.at("draws").as_object();
        const Value& weights = args.at("weights");
        std::vector<rt::EnsembleMember> members;
        std::size_t min_days = SIZE_MAX;
        for (const auto& [uuid, csv] : draws) {
          rt::EnsembleMember m;
          m.name = uuid;
          m.population_weight = weights.at(uuid).as_double();
          m.posterior = csv_to_posterior(csv.as_string());
          min_days = std::min(min_days, m.posterior.days());
          members.push_back(std::move(m));
        }
        // Align horizons (plants publish on the same cadence, but guard
        // against off-by-one horizons).
        for (rt::EnsembleMember& m : members) {
          if (m.posterior.days() == min_days) continue;
          osprey::num::Matrix trimmed(m.posterior.n_draws(), min_days);
          for (std::size_t d = 0; d < m.posterior.n_draws(); ++d) {
            for (std::size_t t = 0; t < min_days; ++t) {
              trimmed(d, t) = m.posterior.draws(d, t);
            }
          }
          m.posterior.draws = std::move(trimmed);
        }
        rt::RtPosterior agg = rt::aggregate_population_weighted(members);
        ValueObject out;
        out["aggregate_csv"] = Value(series_to_csv(agg.summarize()));
        return Value(std::move(out));
      });

  // Python harness for the aggregation flow.
  harnesses.add(
      "aggregate-harness", Language::kPython,
      "aggregation-flow harness: R ensemble + R plot",
      [&harnesses](const Value& args) -> Value {
        ValueObject agg_args;
        agg_args["draws"] = args.at("inputs");
        agg_args["weights"] = args.at("args").at("weights");
        Value agg =
            harnesses.invoke("rt-aggregate", Value(std::move(agg_args)));
        ValueObject plot_args;
        plot_args["summary_csv"] = agg.at("aggregate_csv");
        plot_args["title"] = Value("population-weighted ensemble");
        Value plot = harnesses.invoke("rt-plot", Value(std::move(plot_args)));
        ValueObject outputs;
        outputs["aggregate_rt.csv"] = agg.at("aggregate_csv");
        outputs["aggregate_plot.txt"] = plot.at("plot");
        ValueObject result;
        result["outputs"] = Value(std::move(outputs));
        return Value(std::move(result));
      });
}

fabric::OffloadedBody WastewaterUseCase::prepare_refit(const Value& args) {
  // Loop thread, at the analysis task's virtual start: everything that
  // reads sim time, the current span or the metrics registry happens
  // here or in the commit, never in the work.
  const ValueObject& inputs = args.at("inputs").as_object();
  OSPREY_REQUIRE(inputs.size() == 1, "expected one transformed input");
  const int days =
      refit_days(parse_samples(inputs.begin()->second.as_string()));
  const auto seed =
      static_cast<std::uint64_t>(args.at("args").at("seed").as_int());
  ChainRegistry::Plant& plant = chains_->plant(seed);
  bool warm = false;
  {
    osprey::util::MutexLock lock(plant.mutex);
    warm = warm_refit(plant.state, days, config_.online_updates);
  }
  platform_.metrics()
      .counter(warm ? "rt_refit_warm_total" : "rt_refit_full_total",
               "R(t) refits by chain mode")
      .inc();
  // The span opens here so its id follows the loop's recording order;
  // rt-estimate closes it at the same sim time once the chain is done.
  const std::uint64_t at_ns = obs::sim_ns(platform_.loop().now());
  const obs::SpanId span = platform_.tracer().begin_span(
      obs::Category::kCompute, warm ? "rt:refit-warm" : "rt:refit-full",
      at_ns);
  ValueObject refit;
  refit["warm"] = Value(warm);
  refit["at_ns"] = Value(static_cast<std::int64_t>(at_ns));
  refit["span"] = Value(static_cast<std::int64_t>(span));
  Value call = args;
  call["refit"] = Value(std::move(refit));

  fabric::OffloadedBody body;
  body.work = [harnesses = harnesses_, call = std::move(call)] {
    return harnesses->invoke("rt-analysis-harness", call);
  };
  body.commit = [&metrics = platform_.metrics()](Value result) {
    ValueObject& fields = result.as_object();
    metrics
        .gauge("rt_acceptance_rate_burnin",
               "last refit's burn-in phase acceptance rate")
        .set(fields.at("acceptance_burnin").as_double());
    metrics
        .gauge("rt_acceptance_rate_sampling",
               "last refit's sampling phase acceptance rate")
        .set(fields.at("acceptance_sampling").as_double());
    fields.erase("acceptance_burnin");
    fields.erase("acceptance_sampling");
    return result;
  };
  return body;
}

void WastewaterUseCase::build() {
  OSPREY_REQUIRE(!built_, "build() called twice");
  built_ = true;

  // --- bring your own storage and compute ---
  auto& eagle = platform_.add_storage_endpoint(kStorageName);
  auto& scratch = platform_.add_storage_endpoint(kStagingName);
  auto& pbs = platform_.add_scheduler("bebop-pbs", 4);
  auto& login = platform_.add_login_endpoint("bebop-login", 2);
  auto& compute = platform_.add_batch_endpoint("bebop-compute", pbs);

  const std::string& token = platform_.aero().token();
  eagle.create_collection(kCollection, token);
  scratch.create_collection(kStagingCollection, token);
  // Outputs are shareable with stakeholders via collection permissions.
  eagle.grant(kCollection, "public-health-stakeholder",
              fabric::Permission::kRead, token);

  register_harnesses();

  // --- compute-function registration (with the paper's cost profile:
  // transformation and aggregation under a minute on the login node, the
  // R(t) analysis ~20 minutes on a PBS-scheduled compute node) ---
  // The four plants' analyses run side by side on real cores, as they
  // do on separate Bebop nodes: see prepare_refit.
  std::string transform_fn = login.register_function(
      "ww-transform", harnesses_->as_compute_fn("ww-transform"),
      30 * osprey::util::kSecond);
  std::string analysis_fn = compute.register_offloaded(
      "rt-analysis",
      [this](const Value& args) { return prepare_refit(args); },
      20 * osprey::util::kMinute);
  std::string aggregate_fn = login.register_function(
      "rt-aggregate", harnesses_->as_compute_fn("aggregate-harness"),
      45 * osprey::util::kSecond);

  // --- data sources: 4 plants with distinct epidemic waves ---
  std::vector<epi::Plant> plants = epi::chicago_plants();
  std::vector<epi::RtTruthParams> truths = epi::chicago_truths();
  osprey::num::RngStream seed_stream(config_.seed);
  epi::WastewaterConfig ww = config_.ww;
  ww.days = config_.horizon_days;

  std::vector<std::string> draws_uuids;
  ValueObject weight_map;
  for (std::size_t p = 0; p < plants.size(); ++p) {
    auto gen = std::make_shared<epi::WastewaterGenerator>(
        plants[p], truths[p], ww, seed_stream.substream(p).next_u64());
    generators_.push_back(gen);

    // Ingestion flow (daily polling).
    aero::IngestionFlowSpec ing;
    ing.name = "ingest-" + plants[p].name;
    ing.source = std::make_shared<WastewaterSource>(gen);
    ing.poll_period = osprey::util::kDay;
    ing.first_poll = config_.first_poll_day * osprey::util::kDay +
                     6 * osprey::util::kHour;
    ing.compute = &login;
    ing.function_id = transform_fn;
    ing.staging = &scratch;
    ing.staging_collection = kStagingCollection;
    ing.storage = &eagle;
    ing.collection = kCollection;
    ing.base_path = "plants/" + std::to_string(p);
    ing.retry = config_.retry;
    ing.breaker = config_.breaker;
    ingestion_handles_.push_back(
        platform_.aero().register_ingestion(std::move(ing)));

    // Analysis flow: triggered by the transformed-data UUID.
    aero::AnalysisFlowSpec ana;
    ana.name = "rt-" + plants[p].name;
    ana.input_uuids = {ingestion_handles_.back().output_uuid};
    ana.policy = aero::TriggerPolicy::kAny;
    ana.compute = &compute;
    ana.function_id = analysis_fn;
    ValueObject fn_args;
    fn_args["flow_liters"] = Value(plants[p].avg_flow_mgd * 3.785e6);
    fn_args["seed"] = Value(static_cast<std::int64_t>(
        config_.seed * 1000 + static_cast<std::int64_t>(p)));
    fn_args["plant"] = Value(plants[p].name);
    ana.function_args = Value(std::move(fn_args));
    ana.staging = &scratch;
    ana.staging_collection = kStagingCollection;
    ana.storage = &eagle;
    ana.collection = kCollection;
    ana.base_path = "rt/" + std::to_string(p);
    ana.output_names = {"rt_summary.csv", "rt_draws.csv", "rt_plot.txt",
                        "rt_meta.csv"};
    ana.retry = config_.retry;
    ana.breaker = config_.breaker;
    analysis_outputs_.push_back(
        platform_.aero().register_analysis(std::move(ana)));

    draws_uuids.push_back(analysis_outputs_.back()[1]);
    weight_map[draws_uuids.back()] =
        Value(static_cast<double>(plants[p].population_served));
  }

  // Aggregation flow: ALL four R(t) draws must have updated.
  aero::AnalysisFlowSpec agg;
  agg.name = "rt-aggregate";
  agg.input_uuids = draws_uuids;
  agg.policy = aero::TriggerPolicy::kAll;
  agg.compute = &login;
  agg.function_id = aggregate_fn;
  ValueObject agg_args;
  agg_args["weights"] = Value(std::move(weight_map));
  agg.function_args = Value(std::move(agg_args));
  agg.staging = &scratch;
  agg.staging_collection = kStagingCollection;
  agg.storage = &eagle;
  agg.collection = kCollection;
  agg.base_path = "aggregate";
  agg.output_names = {"aggregate_rt.csv", "aggregate_plot.txt"};
  agg.retry = config_.retry;
  agg.breaker = config_.breaker;
  aggregate_outputs_ = platform_.aero().register_analysis(std::move(agg));

  platform_.tracer().instant(
      obs::Category::kOther, "usecase:ww-built",
      obs::sim_ns(platform_.loop().now()), obs::kNoSpan,
      std::to_string(plants.size()) + " plant(s), " +
          std::to_string(config_.horizon_days) + " day horizon");
}

void WastewaterUseCase::run_to_end() {
  OSPREY_REQUIRE(built_, "run before build()");
  // One extra day absorbs queue waits and the aggregation tail.
  platform_.run_days(config_.horizon_days + 2);
  platform_.tracer().instant(obs::Category::kOther, "usecase:ww-done",
                             obs::sim_ns(platform_.loop().now()),
                             obs::kNoSpan);
}

rt::RtSeries WastewaterUseCase::read_series(const std::string& uuid) const {
  auto version = platform_.aero().db().latest_version(uuid);
  OSPREY_REQUIRE(version.has_value(), "output has no version yet");
  const OspreyPlatform& platform = platform_;
  const auto& obj = platform.storage_endpoint(version->endpoint)
                        .get(version->collection, version->path,
                             platform_.aero().token());
  return csv_to_series(obj.bytes);
}

std::vector<WastewaterUseCase::PlantOutput>
WastewaterUseCase::plant_outputs() const {
  std::vector<PlantOutput> out;
  for (std::size_t p = 0; p < generators_.size(); ++p) {
    PlantOutput po;
    po.plant = generators_[p]->plant();
    const std::string& summary_uuid = analysis_outputs_[p][0];
    po.versions =
        platform_.aero().db().latest_version_number(summary_uuid);
    OSPREY_REQUIRE(po.versions > 0,
                   "no published estimate for " + po.plant.name);
    po.series = read_series(summary_uuid);
    const std::vector<double>& truth = generators_[p]->true_rt();
    std::size_t days = std::min(po.series.days(), truth.size());
    po.truth.assign(truth.begin(),
                    truth.begin() + static_cast<std::ptrdiff_t>(days));
    out.push_back(std::move(po));
  }
  return out;
}

bool WastewaterUseCase::has_aggregate() const {
  return !aggregate_outputs_.empty() &&
         platform_.aero().db().latest_version_number(aggregate_outputs_[0]) >
             0;
}

rt::RtSeries WastewaterUseCase::aggregate_output() const {
  OSPREY_REQUIRE(has_aggregate(), "aggregation has not produced output");
  return read_series(aggregate_outputs_[0]);
}

std::vector<double> WastewaterUseCase::aggregate_truth(
    std::size_t days) const {
  std::vector<std::vector<double>> truths;
  std::vector<double> weights;
  for (const auto& gen : generators_) {
    std::vector<double> t = gen->true_rt();
    t.resize(days);
    truths.push_back(std::move(t));
    weights.push_back(static_cast<double>(gen->plant().population_served));
  }
  return rt::weighted_series_average(truths, weights);
}

}  // namespace osprey::core
