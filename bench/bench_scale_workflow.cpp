/// Scale bench: how far does the "always-on" orchestration layer go?
/// The paper runs 4 feeds for weeks; production surveillance (the IWSS
/// covers dozens of plants) runs many feeds for years. Two sections:
///
///  1. single-loop baseline — N ingestion + N analysis flows + 1
///     ALL-policy aggregation on one EventLoop over a simulated year,
///     with full tracing attached (the PR-7 configuration, kept as the
///     reference point);
///  2. sharded — the same surveillance shape at 1500 feeds polling
///     HOURLY (national-scale deployments sample sub-daily) via
///     shard::ShardedFabric on 8 shards with tracing off, which is how
///     a deployment of that size would actually run. Per-partition
///     event queues stay tiny and unchanged polls skip the checksum
///     hash. Cadence, tracing and feed count all differ from section 1,
///     so the two events/wall-second figures are not a speedup ratio.
///
/// OSPREY_BENCH_SMOKE=1 shrinks both sections for CI smoke runs; the
/// JSON records the mode so the gate knows not to compare smoke
/// numbers against full-run expectations.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "aero/server.hpp"
#include "core/usecase_shard.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/fabric.hpp"
#include "util/file_io.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace osprey;
using util::Value;
using util::ValueObject;
using util::kDay;
using util::kMinute;
using util::kSecond;

namespace {

Value transform(const Value& args) {
  ValueObject out;
  out["output"] = args.at("input");
  return Value(std::move(out));
}

Value analysis(const Value& args) {
  ValueObject outputs;
  outputs["out"] = Value("analyzed:" +
                         std::to_string(args.at("inputs").size()));
  ValueObject out;
  out["outputs"] = Value(std::move(outputs));
  return Value(std::move(out));
}

struct SectionResult {
  int feeds = 0;
  int days = 0;
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_wall_second() const {
    return static_cast<double>(events) / (wall_ms / 1000.0);
  }
};

}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kError);
  const bool smoke = std::getenv("OSPREY_BENCH_SMOKE") != nullptr;
  const int base_feeds = smoke ? 5 : 20;
  const int base_days = smoke ? 56 : 365;
  const int sharded_feeds = smoke ? 24 : 1500;
  const int sharded_days = smoke ? 14 : 56;
  const std::size_t num_shards = 8;

  std::printf("%s", util::banner(
      "Scale — single-loop baseline and 8-shard fabric").c_str());

  // --- section 1: single-loop baseline (tracing on) -------------------
  obs::TraceRecorder tracer;
  fabric::EventLoop loop;
  fabric::AuthService auth;
  fabric::TimerService timers(loop, auth);
  fabric::TransferService transfers(loop, auth);
  fabric::FlowsService flows(loop, auth);
  aero::AeroServer server(loop, auth, timers, transfers, flows);
  fabric::StorageEndpoint eagle("eagle", loop, auth);
  fabric::StorageEndpoint scratch("scratch", loop, auth);
  fabric::BatchScheduler pbs(loop, 8);
  fabric::ComputeEndpoint login("login", loop, auth, 4);
  fabric::ComputeEndpoint compute("compute", loop, auth, pbs);
  timers.set_tracer(&tracer);
  transfers.set_tracer(&tracer);
  flows.set_tracer(&tracer);
  server.set_tracer(&tracer);
  pbs.set_tracer(&tracer);
  login.set_tracer(&tracer);
  compute.set_tracer(&tracer);
  eagle.create_collection("data", server.token());
  scratch.create_collection("staging", server.token());
  std::string transform_fn =
      login.register_function("transform", transform, 30 * kSecond);
  std::string analysis_fn =
      compute.register_function("analysis", analysis, 10 * kMinute);
  std::string agg_fn =
      login.register_function("aggregate", analysis, kMinute);

  // Feeds publish weekly, staggered across weekdays.
  std::vector<std::string> analysis_out_uuids;
  for (int f = 0; f < base_feeds; ++f) {
    std::vector<std::pair<fabric::SimTime, std::string>> timeline;
    for (int week = 0; week * 7 < base_days; ++week) {
      timeline.emplace_back((week * 7 + f % 7) * kDay,
                            "feed" + std::to_string(f) + "-week" +
                                std::to_string(week));
    }
    aero::IngestionFlowSpec ing;
    ing.name = "ingest-" + std::to_string(f);
    ing.source = std::make_shared<aero::ScriptedSource>(
        "https://feeds/" + std::to_string(f), std::move(timeline));
    ing.poll_period = kDay;
    ing.compute = &login;
    ing.function_id = transform_fn;
    ing.staging = &scratch;
    ing.staging_collection = "staging";
    ing.storage = &eagle;
    ing.collection = "data";
    ing.base_path = "feed/" + std::to_string(f);
    auto handles = server.register_ingestion(std::move(ing));

    aero::AnalysisFlowSpec ana;
    ana.name = "analyze-" + std::to_string(f);
    ana.input_uuids = {handles.output_uuid};
    ana.policy = aero::TriggerPolicy::kAny;
    ana.compute = &compute;
    ana.function_id = analysis_fn;
    ana.staging = &scratch;
    ana.staging_collection = "staging";
    ana.storage = &eagle;
    ana.collection = "data";
    ana.base_path = "analysis/" + std::to_string(f);
    ana.output_names = {"out"};
    analysis_out_uuids.push_back(
        server.register_analysis(std::move(ana))[0]);
  }
  aero::AnalysisFlowSpec agg;
  agg.name = "aggregate-all";
  agg.input_uuids = analysis_out_uuids;
  agg.policy = aero::TriggerPolicy::kAll;
  agg.compute = &login;
  agg.function_id = agg_fn;
  agg.staging = &scratch;
  agg.staging_collection = "staging";
  agg.storage = &eagle;
  agg.collection = "data";
  agg.base_path = "aggregate";
  agg.output_names = {"out"};
  auto agg_uuid = server.register_analysis(std::move(agg))[0];

  SectionResult base;
  base.feeds = base_feeds;
  base.days = base_days;
  {
    auto t0 = std::chrono::steady_clock::now();
    loop.run_until(static_cast<fabric::SimTime>(base_days) * kDay);
    auto t1 = std::chrono::steady_clock::now();
    base.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    base.events = loop.events_processed();
  }

  util::TextTable table({"metric", "baseline"});
  table.add_row({"virtual days simulated", std::to_string(base_days)});
  table.add_row({"feeds", std::to_string(base_feeds)});
  table.add_row({"polls", std::to_string(server.polls())});
  table.add_row({"updates detected",
                 std::to_string(server.updates_detected())});
  table.add_row({"ingestion runs", std::to_string(server.ingestion_runs())});
  table.add_row({"analysis runs", std::to_string(server.analysis_runs())});
  table.add_row({"aggregations",
                 std::to_string(server.db().latest_version_number(agg_uuid))});
  table.add_row({"failed runs", std::to_string(server.failed_runs())});
  table.add_row({"event-loop events", std::to_string(base.events)});
  table.add_row({"metadata queries", std::to_string(server.db().query_count())});
  table.add_row({"transfers", std::to_string(transfers.completed_count())});
  table.add_row({"wall time", util::TextTable::num(base.wall_ms, 0) + " ms"});
  table.add_row({"events/wall-sec",
                 util::TextTable::num(base.events_per_wall_second(), 0)});
  std::printf("%s\n", table.render().c_str());

  // --- section 2: sharded fabric (1500 feeds, 8 shards) ----------------
  SectionResult sharded;
  sharded.feeds = sharded_feeds;
  sharded.days = sharded_days;
  std::uint64_t rounds = 0, aggregates = 0;
  std::size_t partitions = 0;
  {
    shard::ShardedFabricConfig config;
    config.num_shards = num_shards;
    config.tracing = false;  // production posture: counters, not spans
    shard::ShardedFabric fabric(config);
    fabric.register_campaign(core::make_surveillance_campaign(
        "scale", sharded_feeds, sharded_days, util::kHour));
    partitions = fabric.num_partitions();
    auto t0 = std::chrono::steady_clock::now();
    fabric.run_until(static_cast<fabric::SimTime>(sharded_days) * kDay);
    auto t1 = std::chrono::steady_clock::now();
    sharded.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    sharded.events = fabric.events_processed();
    rounds = fabric.coordinator().rounds_dispatched("scale");
    aggregates = fabric.coordinator().aggregates_published("scale");
  }
  util::TextTable stable({"metric", "sharded"});
  stable.add_row({"virtual days simulated", std::to_string(sharded_days)});
  stable.add_row({"feeds", std::to_string(sharded_feeds)});
  stable.add_row({"poll cadence", "hourly"});
  stable.add_row({"shards", std::to_string(num_shards)});
  stable.add_row({"partitions", std::to_string(partitions)});
  stable.add_row({"aggregation rounds", std::to_string(rounds)});
  stable.add_row({"aggregates published", std::to_string(aggregates)});
  stable.add_row({"event-loop events", std::to_string(sharded.events)});
  stable.add_row({"wall time",
                  util::TextTable::num(sharded.wall_ms, 0) + " ms"});
  stable.add_row({"events/wall-sec",
                  util::TextTable::num(sharded.events_per_wall_second(), 0)});
  std::printf("%s\n", stable.render().c_str());

  std::printf("%d feeds of always-on surveillance sustain %.0f "
              "events/wall-sec on %zu shards.\n",
              sharded_feeds, sharded.events_per_wall_second(), num_shards);

  // --- observability: BENCH_*.json perf snapshot ---------------------
  std::vector<obs::SpanRecord> spans = tracer.snapshot();
  obs::CriticalPathReport report = obs::analyze(spans);
  std::size_t total_runs = static_cast<std::size_t>(server.ingestion_runs()) +
                           static_cast<std::size_t>(server.analysis_runs());
  ValueObject bench;
  bench["bench"] = Value("scale_workflow");
  bench["smoke"] = Value(smoke);
  bench["virtual_days"] = Value(base_days);
  bench["feeds"] = Value(base_feeds);
  bench["span_count"] = Value(spans.size());
  bench["makespan_ms"] = Value(static_cast<double>(report.makespan_ns) / 1e6);
  ValueObject category_ms;
  for (const auto& [cat, ns] : report.category_ns) {
    category_ms[cat] = Value(static_cast<double>(ns) / 1e6);
  }
  bench["category_ms"] = Value(std::move(category_ms));
  bench["flow_runs"] = Value(total_runs);
  bench["flow_runs_per_virtual_day"] = Value(
      static_cast<double>(total_runs) / base_days);
  bench["wall_ms"] = Value(base.wall_ms);
  bench["events_per_wall_second"] = Value(base.events_per_wall_second());
  ValueObject sh;
  sh["feeds"] = Value(sharded.feeds);
  sh["poll_period_hours"] = Value(1);
  sh["shards"] = Value(static_cast<std::uint64_t>(num_shards));
  sh["partitions"] = Value(partitions);
  sh["virtual_days"] = Value(sharded.days);
  sh["events"] = Value(sharded.events);
  sh["wall_ms"] = Value(sharded.wall_ms);
  sh["events_per_wall_second"] = Value(sharded.events_per_wall_second());
  sh["aggregation_rounds"] = Value(rounds);
  sh["aggregates_published"] = Value(aggregates);
  bench["sharded"] = Value(std::move(sh));
  bench["metrics"] = loop.metrics().snapshot();
  util::write_text_file("results/BENCH_scale_workflow.json",
                        Value(std::move(bench)).to_json());
  std::printf("wrote results/BENCH_scale_workflow.json\n");
  return 0;
}
