/// obs::TraceRecorder + exporters + critical path: span parenting via
/// CurrentSpanGuard, canonicalization (recording order must not leak
/// into the exported bytes), Chrome-trace round trips, the log-line
/// sink, and the golden determinism property the subsystem exists for:
/// two replays of the same chaos seed export byte-identical traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "aero/source.hpp"
#include "core/platform.hpp"
#include "core/usecase_ww.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "shard/fabric.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace obs = osprey::obs;
namespace oc = osprey::core;
namespace of = osprey::fabric;
namespace ou = osprey::util;
using ou::kDay;
using ou::kHour;
using ou::kMinute;
using ou::SimTime;

TEST(TraceRecorder, SpansNestViaCurrentSpanGuard) {
  obs::TraceRecorder rec;
  obs::SpanId parent = rec.begin_span(obs::Category::kAero, "parent",
                                      obs::sim_ns(0), obs::kNoSpan);
  obs::SpanId child;
  {
    obs::CurrentSpanGuard guard(parent);
    EXPECT_EQ(obs::current_span(), parent);
    // kInheritParent resolves to the guard's span.
    child = rec.begin_span(obs::Category::kFlow, "child", obs::sim_ns(1));
  }
  EXPECT_EQ(obs::current_span(), obs::kNoSpan);
  rec.end_span(child, obs::sim_ns(2));
  rec.end_span(parent, obs::sim_ns(3));

  std::vector<obs::SpanRecord> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const obs::SpanRecord* c = nullptr;
  for (const auto& s : spans) {
    if (s.name == "child") c = &s;
  }
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->parent, parent);
}

TEST(TraceRecorder, EndSpanIsIdempotentAndIgnoresNoSpan) {
  obs::TraceRecorder rec;
  rec.end_span(obs::kNoSpan, obs::sim_ns(1));  // no-op
  obs::SpanId s = rec.begin_span(obs::Category::kCompute, "x", obs::sim_ns(0),
                                 obs::kNoSpan);
  rec.end_span(s, obs::sim_ns(5), false, "first error wins");
  rec.end_span(s, obs::sim_ns(9), true);  // ignored: already closed
  std::vector<obs::SpanRecord> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end_ns, obs::sim_ns(5));
  EXPECT_FALSE(spans[0].ok);
  EXPECT_EQ(rec.open_count(), 0u);
}

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  obs::TraceRecorder rec;
  rec.set_enabled(false);
  obs::SpanId s = rec.begin_span(obs::Category::kAero, "x", obs::sim_ns(0),
                                 obs::kNoSpan);
  EXPECT_EQ(s, obs::kNoSpan);
  rec.instant(obs::Category::kAero, "i", obs::sim_ns(0), obs::kNoSpan);
  EXPECT_EQ(rec.span_count(), 0u);
}

TEST(Export, RecordingOrderDoesNotChangeExportedBytes) {
  // The same logical trace recorded in two different orders (as thread
  // interleaving would produce) must export identically.
  obs::TraceRecorder a;
  obs::SpanId a1 = a.begin_span(obs::Category::kTransfer, "t1",
                                obs::sim_ns(0), obs::kNoSpan);
  obs::SpanId a2 = a.begin_span(obs::Category::kCompute, "c1",
                                obs::sim_ns(10), obs::kNoSpan);
  a.end_span(a1, obs::sim_ns(20));
  a.end_span(a2, obs::sim_ns(30));

  obs::TraceRecorder b;
  obs::SpanId b2 = b.begin_span(obs::Category::kCompute, "c1",
                                obs::sim_ns(10), obs::kNoSpan);
  obs::SpanId b1 = b.begin_span(obs::Category::kTransfer, "t1",
                                obs::sim_ns(0), obs::kNoSpan);
  b.end_span(b2, obs::sim_ns(30));
  b.end_span(b1, obs::sim_ns(20));

  EXPECT_EQ(obs::chrome_trace_json(a), obs::chrome_trace_json(b));
}

TEST(Export, ChromeTraceRoundTripIsByteIdentical) {
  obs::TraceRecorder rec;
  obs::SpanId p = rec.begin_span(obs::Category::kAero, "ingest:x",
                                 obs::sim_ns(0), obs::kNoSpan, "poll");
  obs::SpanId q = rec.begin_span(obs::Category::kFlow, "flow:x",
                                 obs::sim_ns(1), p);
  rec.end_span(q, obs::sim_ns(7), false, "step failed: boom");
  rec.end_span(p, obs::sim_ns(9));
  rec.instant(obs::Category::kAero, "incident:retry-scheduled",
              obs::sim_ns(9), p, "x: attempt 1");

  std::string json = obs::chrome_trace_json(rec);
  std::vector<obs::SpanRecord> parsed = obs::parse_chrome_trace(json);
  EXPECT_EQ(obs::chrome_trace_json(parsed), json);
  // Parent links survive the round trip.
  const obs::SpanRecord* flow = nullptr;
  const obs::SpanRecord* ingest = nullptr;
  for (const auto& s : parsed) {
    if (s.name == "flow:x") flow = &s;
    if (s.name == "ingest:x") ingest = &s;
  }
  ASSERT_NE(flow, nullptr);
  ASSERT_NE(ingest, nullptr);
  EXPECT_EQ(flow->parent, ingest->id);
  EXPECT_FALSE(flow->ok);
}

TEST(Export, LogSinkTurnsLogLinesIntoInstants) {
  obs::TraceRecorder rec;
  ou::SimClock clock;
  clock.set_ns(obs::sim_ns(42));
  ou::LogSink previous =
      ou::set_log_sink(obs::make_trace_log_sink(rec, clock));
  OSPREY_LOG_WARN("aero", "fetch failed for 'x'");
  ou::set_log_sink(std::move(previous));

  std::vector<obs::SpanRecord> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].instant);
  EXPECT_EQ(spans[0].name, "log:aero");
  EXPECT_EQ(spans[0].begin_ns, obs::sim_ns(42));
  EXPECT_NE(spans[0].detail.find("fetch failed"), std::string::npos);
}

TEST(CriticalPath, ChainBeatsParallelWork) {
  obs::TraceRecorder rec;
  // Chain: a [0,10] -> b [10,30]. Parallel blob: p [0,25] (shorter than
  // the 30ms chain end, so the chain bounds the makespan).
  obs::SpanId a = rec.begin_span(obs::Category::kTransfer, "a",
                                 obs::sim_ns(0), obs::kNoSpan);
  rec.end_span(a, obs::sim_ns(10));
  obs::SpanId b = rec.begin_span(obs::Category::kCompute, "b",
                                 obs::sim_ns(10), obs::kNoSpan);
  rec.end_span(b, obs::sim_ns(30));
  obs::SpanId p = rec.begin_span(obs::Category::kFlow, "p", obs::sim_ns(0),
                                 obs::kNoSpan);
  rec.end_span(p, obs::sim_ns(25));

  obs::CriticalPathReport report = obs::analyze(rec.snapshot());
  EXPECT_EQ(report.makespan_ns, obs::sim_ns(30));
  ASSERT_EQ(report.path.size(), 2u);
  EXPECT_EQ(report.path[0].name, "a");
  EXPECT_EQ(report.path[1].name, "b");
  EXPECT_EQ(report.path_ns, obs::sim_ns(30));
  EXPECT_EQ(report.category_ns.at("transfer"), obs::sim_ns(10));
  EXPECT_EQ(report.category_ns.at("compute"), obs::sim_ns(20));
  EXPECT_EQ(report.category_ns.at("flow"), obs::sim_ns(25));
  // The report renders without throwing and mentions the makespan.
  std::string text = obs::render_report(report);
  EXPECT_NE(text.find("critical path"), std::string::npos);
}

namespace {

/// Scaled-down wastewater workflow under a seeded chaos plan: the
/// cheapest run that still exercises transfers, compute, flows, retries
/// and incident instants.
struct TracedRun {
  std::unique_ptr<oc::OspreyPlatform> platform;
  std::unique_ptr<of::FaultPlan> plan;
  std::unique_ptr<oc::WastewaterUseCase> usecase;
};

TracedRun run_traced_workflow(std::uint64_t seed) {
  TracedRun run;
  run.platform = std::make_unique<oc::OspreyPlatform>();

  auto plan = std::make_unique<of::FaultPlan>(0xC8A05000ULL + seed);
  plan->set_active_window(28 * kDay, 36 * kDay);
  plan->set_rate(of::FaultKind::kTransferDrop, 0.05);
  plan->set_rate(of::FaultKind::kComputeKill, 0.05);
  plan->set_rate(of::FaultKind::kFlowStall, 0.03);
  run.plan = std::move(plan);
  run.platform->install_fault_plan(run.plan.get());

  oc::WwUseCaseConfig config;
  config.horizon_days = 38;
  config.goldstein.iterations = 200;
  config.goldstein.burnin = 100;
  config.goldstein.thin = 2;
  config.aggregate_draws = 30;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff = 20 * kMinute;
  config.retry.multiplier = 2.0;
  config.retry.jitter = 0.2;
  config.retry.seed = 0x5EEDULL ^ seed;
  run.usecase =
      std::make_unique<oc::WastewaterUseCase>(*run.platform, config);
  run.usecase->build();
  run.usecase->run_to_end();
  return run;
}

}  // namespace

TEST(GoldenDeterminism, SameChaosSeedExportsIdenticalTraceBytes) {
  TracedRun first = run_traced_workflow(3);
  TracedRun second = run_traced_workflow(3);

  // The workflow actually traced something substantial.
  EXPECT_GT(first.platform->tracer().span_count(), 100u);

  std::string trace1 = obs::chrome_trace_json(first.platform->tracer());
  std::string trace2 = obs::chrome_trace_json(second.platform->tracer());
  EXPECT_EQ(trace1, trace2) << "chaos replay produced different trace bytes";

  // Metrics replay identically too.
  EXPECT_EQ(first.platform->metrics().snapshot().to_json(),
            second.platform->metrics().snapshot().to_json());
  EXPECT_EQ(obs::prometheus_text(first.platform->metrics()),
            obs::prometheus_text(second.platform->metrics()));
}

TEST(GoldenDeterminism, CriticalPathMakespanMatchesWorkflowTimeline) {
  TracedRun run = run_traced_workflow(1);

  obs::CriticalPathReport report =
      obs::analyze(run.platform->tracer().snapshot());

  // The trace extent must agree with the run provenance: the earliest
  // run start and the latest run end bound the workflow (every other
  // span nests inside some flow run or its trigger). Each AERO run wraps
  // exactly one flow run and shares its start and end times.
  const auto& records = run.platform->aero().db().runs();
  ASSERT_FALSE(records.empty());
  SimTime min_started = records.front().started;
  SimTime max_ended = 0;
  for (const auto& rec : records) {
    min_started = std::min(min_started, rec.started);
    if (rec.ended >= 0) max_ended = std::max(max_ended, rec.ended);
  }
  EXPECT_EQ(report.trace_begin_ns, obs::sim_ns(min_started));
  EXPECT_EQ(report.trace_end_ns, obs::sim_ns(max_ended));
  EXPECT_EQ(report.makespan_ns,
            obs::sim_ns(max_ended) - obs::sim_ns(min_started));

  // Path sanity: non-empty, non-overlapping, within the makespan.
  ASSERT_FALSE(report.path.empty());
  for (std::size_t i = 1; i < report.path.size(); ++i) {
    EXPECT_LE(report.path[i - 1].end_ns, report.path[i].begin_ns);
  }
  EXPECT_LE(report.path_ns, report.makespan_ns);

  // The full export/analyze pipeline agrees with the in-memory one.
  std::vector<obs::SpanRecord> parsed = obs::parse_chrome_trace(
      obs::chrome_trace_json(run.platform->tracer()));
  obs::CriticalPathReport reparsed = obs::analyze(std::move(parsed));
  EXPECT_EQ(reparsed.makespan_ns, report.makespan_ns);
  EXPECT_EQ(reparsed.path_ns, report.path_ns);
  EXPECT_EQ(reparsed.span_count, report.span_count);
}

// --- trace wiring layout -------------------------------------------------

namespace {

namespace oa = osprey::aero;
namespace sh = osprey::shard;
using ou::Value;
using ou::ValueObject;

/// (category, name) -> count over every recorded span and instant.
std::map<std::string, int> trace_layout(
    const std::vector<obs::SpanRecord>& spans) {
  std::map<std::string, int> layout;
  for (const obs::SpanRecord& span : spans) {
    ++layout[std::string(obs::category_name(span.category)) + " " +
             span.name];
  }
  return layout;
}

std::set<std::string> shard_labels(const std::vector<obs::SpanRecord>& spans) {
  std::set<std::string> labels;
  for (const obs::SpanRecord& span : spans) labels.insert(span.shard);
  return labels;
}

/// Two daily publications, one feed.
std::vector<std::pair<SimTime, std::string>> two_day_timeline() {
  return {{0, "day0"}, {kDay, "day1"}};
}

}  // namespace

TEST(TraceLayout, PlatformAndPartition) {
  // A platform whose scheduler and endpoints are added after it is
  // built: one ingestion on the login node, one analysis on the batch
  // endpoint, two days.
  oc::OspreyPlatform platform;
  oa::AeroServer& server = platform.aero();
  of::StorageEndpoint& eagle = platform.add_storage_endpoint("eagle");
  of::StorageEndpoint& scratch = platform.add_storage_endpoint("scratch");
  eagle.create_collection("data", server.token());
  scratch.create_collection("staging", server.token());
  platform.add_scheduler("pbs", 2);
  of::ComputeEndpoint& login = platform.add_login_endpoint("login", 2);
  of::ComputeEndpoint& batch =
      platform.add_batch_endpoint("batch", platform.scheduler("pbs"));

  oa::IngestionFlowSpec ing;
  ing.name = "ingest";
  ing.source =
      std::make_shared<oa::ScriptedSource>("https://feed", two_day_timeline());
  ing.compute = &login;
  ing.function_id = login.register_function(
      "transform",
      [](const Value& args) {
        ValueObject out;
        out["output"] = args.at("input");
        return Value(std::move(out));
      },
      kMinute);
  ing.staging = &scratch;
  ing.staging_collection = "staging";
  ing.storage = &eagle;
  ing.collection = "data";
  ing.base_path = "feed";
  const std::string ingest_uuid =
      server.register_ingestion(std::move(ing)).output_uuid;

  oa::AnalysisFlowSpec ana;
  ana.name = "analyze";
  ana.input_uuids = {ingest_uuid};
  ana.policy = oa::TriggerPolicy::kAny;
  ana.compute = &batch;
  ana.function_id = batch.register_function(
      "analysis",
      [](const Value&) {
        ValueObject outputs;
        outputs["out"] = Value("analyzed");
        ValueObject out;
        out["outputs"] = Value(std::move(outputs));
        return Value(std::move(out));
      },
      kMinute);
  ana.staging = &scratch;
  ana.staging_collection = "staging";
  ana.storage = &eagle;
  ana.collection = "data";
  ana.base_path = "analysis";
  ana.output_names = {"out"};
  server.register_analysis(std::move(ana));
  platform.run_days(2);

  const std::vector<obs::SpanRecord> platform_spans =
      platform.tracer().snapshot();
  const std::map<std::string, int> platform_layout = {
      {"aero analyze:analyze", 2},
      {"aero ingest:ingest", 2},
      {"aero update:ingest", 2},
      {"compute compute:analysis", 2},
      {"compute compute:transform", 2},
      {"compute job:gc:analysis", 2},
      {"flow flow:analyze", 2},
      {"flow flow:ingest", 2},
      {"flow step:execute", 2},
      {"flow step:register-metadata", 4},
      {"flow step:stage-in", 2},
      {"flow step:stage-out", 4},
      {"flow step:transform", 2},
      {"flow step:upload-raw", 2},
      {"flow timer:poll:ingest", 3},
      {"transfer transfer:eagle->scratch", 2},
      {"transfer transfer:scratch->eagle", 6},
  };
  EXPECT_EQ(trace_layout(platform_spans), platform_layout);
  EXPECT_EQ(shard_labels(platform_spans), std::set<std::string>{""});

  // The same feed on a one-shard fabric, whose partition wires its own
  // stack: traced, every partition span carries the partition key;
  // untraced, neither the partition nor the coordinator records a span.
  sh::CampaignSpec campaign;
  campaign.name = "layout";
  campaign.aggregate = false;
  sh::FeedSpec feed;
  feed.name = "feed0";
  feed.timeline = two_day_timeline();
  campaign.feeds.push_back(feed);
  const std::map<std::string, int> partition_layout = {
      {"aero analyze:analyze-feed0", 2},
      {"aero ingest:ingest-feed0", 2},
      {"aero update:ingest-feed0", 2},
      {"compute compute:analysis", 2},
      {"compute compute:transform", 2},
      {"flow flow:analyze-feed0", 2},
      {"flow flow:ingest-feed0", 2},
      {"flow step:execute", 2},
      {"flow step:register-metadata", 4},
      {"flow step:stage-in", 2},
      {"flow step:stage-out", 4},
      {"flow step:transform", 2},
      {"flow step:upload-raw", 2},
      {"flow timer:poll:ingest-feed0", 3},
      {"transfer transfer:eagle->scratch", 2},
      {"transfer transfer:scratch->eagle", 6},
  };
  const std::map<std::string, int> coordinator_layout = {
      {"other coord:register:layout", 1},
  };
  for (bool tracing : {true, false}) {
    SCOPED_TRACE(tracing ? "traced" : "untraced");
    sh::ShardedFabricConfig config;
    config.tracing = tracing;
    sh::ShardedFabric fabric(config);
    fabric.register_campaign(campaign);
    fabric.run_until(2 * kDay);
    const std::vector<obs::SpanRecord> partition_spans =
        fabric.partition("feed0").spans();
    const std::vector<obs::SpanRecord> merged = fabric.merged_spans();
    if (tracing) {
      EXPECT_EQ(trace_layout(partition_spans), partition_layout);
      EXPECT_EQ(shard_labels(partition_spans),
                std::set<std::string>{"feed0"});
      std::map<std::string, int> merged_layout = partition_layout;
      merged_layout.insert(coordinator_layout.begin(),
                           coordinator_layout.end());
      EXPECT_EQ(trace_layout(merged), merged_layout);
      EXPECT_EQ(shard_labels(merged),
                (std::set<std::string>{"coordinator", "feed0"}));
    } else {
      // Untraced means untraced everywhere, the coordinator included.
      EXPECT_TRUE(partition_spans.empty());
      EXPECT_TRUE(merged.empty());
    }
  }
}
