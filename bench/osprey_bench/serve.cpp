/// serve_flood: the serving tier under a read flood while ingestion keeps
/// invalidating entries — the bench_serve_flood stack. 24 plants publish
/// every 3 days (seeded phase) through AERO ingestion plus a per-plant
/// QoI analysis; a 30-day warm-up populates versions (counted in set-up),
/// then a 14-day flood of seeded Zipf(1.0) reads runs on the same loop.
/// Open loop in virtual time: the first 90% of reads arrive evenly
/// spaced, the last 10% at 10/ms, past the 1/ms hit capacity, so
/// admission control must shed. Single-threaded: this is the baseline
/// for per-request event-loop cost.

#include <functional>
#include <string>
#include <vector>

#include "aero/server.hpp"
#include "fabric/compute.hpp"
#include "fabric/storage.hpp"
#include "measure.hpp"
#include "num/rng.hpp"
#include "serve/cache.hpp"
#include "serve/frontend.hpp"
#include "serve/zipf.hpp"
#include "workloads.hpp"

namespace osprey::bench {

namespace {

using osprey::util::kDay;
using osprey::util::kMinute;
using osprey::util::kSecond;
using osprey::util::SimTime;
using osprey::util::Value;
using osprey::util::ValueObject;

constexpr int kPlants = 24;
constexpr int kWarmupDays = 30;
constexpr int kFloodDays = 14;

Value transform(const Value& args) {
  ValueObject out;
  out["output"] = args.at("input");
  return Value(std::move(out));
}

Value qoi_analysis(const Value& args) {
  ValueObject outputs;
  outputs["rt"] = Value("rt:" + std::to_string(args.at("inputs").size()));
  outputs["cases"] =
      Value("cases:" + std::to_string(args.at("inputs").size()));
  ValueObject out;
  out["outputs"] = Value(std::move(outputs));
  return Value(std::move(out));
}

/// What the readers saw, collected through submit's callback.
struct Reads {
  /// Admitted reads per virtual-ms latency: a few hundred counters
  /// instead of one entry per read.
  std::vector<std::uint64_t> latency_count;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t denied = 0;
  std::uint64_t without_version = 0;
  std::uint64_t reason_mismatch = 0;  // "reason empty iff fresh" broken

  void on_response(const serve::ServeResponse& resp) {
    ++completed;
    if (resp.outcome == serve::ServeOutcome::kShed) {
      ++shed;
      return;
    }
    if (resp.outcome == serve::ServeOutcome::kDenied) {
      ++denied;
      return;
    }
    const auto ms = static_cast<std::size_t>(resp.latency());
    if (ms >= latency_count.size()) latency_count.resize(ms + 1, 0);
    ++latency_count[ms];
    ++admitted;
    if (!resp.estimate.version.has_value()) ++without_version;
    if (resp.estimate.reason.empty() == resp.estimate.stale) {
      ++reason_mismatch;
    }
  }
};

}  // namespace

void run_serve_flood(const Options& options, Report& r) {
  const std::uint64_t requests = options.smoke ? 200'000 : 2'000'000;
  const std::uint64_t steady = requests / 10 * 9;
  r.params["plants"] = Value(kPlants);
  r.params["warmup_days"] = Value(kWarmupDays);
  r.params["flood_days"] = Value(kFloodDays);
  r.params["requests"] = Value(static_cast<std::int64_t>(requests));
  r.params["zipf_exponent"] = Value(1.0);
  r.params["queue_depth"] = Value(256);

  TimedRun run;
  obs::MetricsRegistry metrics;
  obs::TraceRecorder tracer;
  fabric::EventLoop loop;
  fabric::AuthService auth;
  fabric::TimerService timers(loop, auth);
  fabric::TransferService transfers(loop, auth);
  fabric::FlowsService flows(loop, auth);
  aero::AeroServer server(loop, auth, timers, transfers, flows, "aero",
                          &metrics);
  fabric::StorageEndpoint eagle("eagle", loop, auth);
  fabric::StorageEndpoint scratch("scratch", loop, auth);
  fabric::ComputeEndpoint login("login", loop, auth, 4);
  if (options.traced) {
    // Not the front end: one span per read would make the traced rep's
    // memory grow with the request count.
    timers.set_tracer(&tracer);
    transfers.set_tracer(&tracer);
    flows.set_tracer(&tracer);
    server.set_tracer(&tracer);
    login.set_tracer(&tracer);
  }
  eagle.create_collection("data", server.token());
  scratch.create_collection("staging", server.token());
  const std::string transform_fn =
      login.register_function("transform", transform, 30 * kSecond);
  const std::string qoi_fn =
      login.register_function("qoi", qoi_analysis, kMinute);

  std::vector<std::string> objects;
  const num::RngStream phases(options.seed);
  for (int f = 0; f < kPlants; ++f) {
    const int phase =
        static_cast<int>(phases.substream(static_cast<std::uint64_t>(f))
                             .uniform_int(3));
    std::vector<std::pair<SimTime, std::string>> timeline;
    for (int day = phase; day < kWarmupDays + kFloodDays; day += 3) {
      timeline.emplace_back(static_cast<SimTime>(day) * kDay,
                            "plant" + std::to_string(f) + "-day" +
                                std::to_string(day));
    }
    aero::IngestionFlowSpec ing;
    ing.name = "plant-" + std::to_string(f);
    ing.source = std::make_shared<aero::ScriptedSource>(
        "https://plants/" + std::to_string(f), std::move(timeline));
    ing.poll_period = kDay;
    ing.compute = &login;
    ing.function_id = transform_fn;
    ing.staging = &scratch;
    ing.staging_collection = "staging";
    ing.storage = &eagle;
    ing.collection = "data";
    ing.base_path = "plant/" + std::to_string(f);
    aero::IngestionHandles handles = server.register_ingestion(std::move(ing));
    objects.push_back(handles.raw_uuid);
    objects.push_back(handles.output_uuid);

    aero::AnalysisFlowSpec qoi;
    qoi.name = "qoi-" + std::to_string(f);
    qoi.input_uuids = {handles.output_uuid};
    qoi.policy = aero::TriggerPolicy::kAny;
    qoi.compute = &login;
    qoi.function_id = qoi_fn;
    qoi.staging = &scratch;
    qoi.staging_collection = "staging";
    qoi.storage = &eagle;
    qoi.collection = "data";
    qoi.base_path = "qoi/" + std::to_string(f);
    qoi.output_names = {"rt", "cases"};
    for (std::string& uuid : server.register_analysis(std::move(qoi))) {
      objects.push_back(std::move(uuid));
    }
  }

  serve::ResultCache cache(server, metrics);
  serve::FrontEndConfig config;
  config.max_queue_depth = 256;
  serve::FrontEnd frontend(loop, auth, cache, metrics, config);
  const std::string reader =
      auth.issue_token("dashboards", {fabric::scopes::kServe});
  const serve::ZipfTrace zipf(objects.size(), 1.0, options.seed);
  loop.run_until(static_cast<SimTime>(kWarmupDays) * kDay);
  run.end_setup();

  // Open-loop arrivals: steady spacing over all but the last flood day,
  // then the burst at 10 per virtual ms.
  const SimTime flood_start = static_cast<SimTime>(kWarmupDays) * kDay;
  const SimTime spacing = static_cast<SimTime>(
      (kFloodDays - 1) * kDay / static_cast<SimTime>(steady));
  auto arrival = [&](std::uint64_t i) -> SimTime {
    if (i < steady) return flood_start + static_cast<SimTime>(i) * spacing;
    return flood_start + static_cast<SimTime>(steady) * spacing +
           static_cast<SimTime>((i - steady) / 10);
  };

  Reads reads;
  std::vector<double> submit_ns;
  if (options.traced) submit_ns.reserve(requests);
  const serve::FrontEnd::Callback done =
      [&reads](const serve::ServeResponse& resp) { reads.on_response(resp); };
  // One outstanding event submits request i and re-arms for i+1, so the
  // flood never queues millions of closures. The traced rep times each
  // submit call.
  std::uint64_t next = 0;
  std::function<void()> pump = [&] {
    serve::ServeRequest request{objects[zipf.item(next)], reader,
                                "dashboards"};
    if (options.traced) {
      Stopwatch sw;
      frontend.submit(std::move(request), done);
      submit_ns.push_back(sw.seconds() * 1e9);
    } else {
      frontend.submit(std::move(request), done);
    }
    if (++next < requests) loop.schedule_at(arrival(next), pump);
  };
  loop.schedule_at(arrival(0), pump);

  const double events0 = static_cast<double>(loop.events_processed());
  run.run_steps(kFloodDays, [&](int d) {
    loop.run_until(flood_start + static_cast<SimTime>(d) * kDay);
  });
  run.feed_days = static_cast<double>(kPlants) * kFloodDays;
  const double events = static_cast<double>(loop.events_processed()) - events0;

  // --- outputs and checks ---------------------------------------------
  const double n = static_cast<double>(requests);
  r.check(next == requests, "the pump did not submit every request");
  r.check(reads.completed == requests, "a read never completed");
  r.check(frontend.served() + frontend.shed() + frontend.denied() == requests,
          "front-end outcome counters do not add up to the requests");
  r.check(cache.hits() + cache.misses() + cache.revalidates() ==
              frontend.served(),
          "cache outcomes do not add up to the served reads");
  r.check(reads.denied == 0, "a reader with the serve scope was denied");
  r.check(reads.shed > 0, "the burst did not force any shedding");
  r.check(reads.without_version == 0, "an admitted read carried no version");
  r.check(reads.reason_mismatch == 0, "staleness reason empty iff fresh broken");

  const double lookups = static_cast<double>(cache.hits() + cache.misses() +
                                             cache.revalidates());
  r.set_work("serve.hit_ratio", ratio(static_cast<double>(cache.hits()),
                                      lookups));
  r.set_work("serve.misses", static_cast<double>(cache.misses()));
  r.set_work("serve.revalidates", static_cast<double>(cache.revalidates()));
  r.set_work("serve.invalidations",
             static_cast<double>(cache.invalidations()));
  r.set_work("serve.shed", static_cast<double>(reads.shed));
  r.set_work("serve.failed_ratio",
             static_cast<double>(reads.shed + reads.denied) / n);
  set_p50_tail(r, "serve.read_latency", "_ms", reads.admitted, [&](double q) {
    return quantile_counts(reads.latency_count, q);
  });

  AeroTotals totals;
  totals.add(server);
  report_work(r, events, totals, run.feed_days);

  r.set_wall("serve.reads_per_s", ratio(n, run.run_s));
  r.set_wall("obs.spans", static_cast<double>(tracer.span_count()));
  if (options.traced) {
    double submit_total_ns = 0.0;
    for (double ns : submit_ns) submit_total_ns += ns;
    r.set_wall("serve.submit_ns_p50", quantile(submit_ns, 0.5));
    r.set_wall("serve.submit_ns_p99", quantile(submit_ns, 0.99));
    r.set_wall("serve.submit_share", ratio(submit_total_ns / 1e9, run.run_s));
    run.attributed_s = submit_total_ns / 1e9;
    report_dispatch(options, r, events, run.cpu_s);
  }
  report_end_to_end(r, run);
}

}  // namespace osprey::bench
