/// Seed-swept chaos suite (ISSUE 4): the paper's wastewater R(t)
/// workflow run under a seeded FaultPlan that injects transfer
/// drops/stalls/corruption, compute kills, endpoint and source outages,
/// auth expiry and storage ACL races — while the AERO server recovers
/// with retries, circuit breakers and graceful degradation.
///
/// Invariants asserted for every seed:
///   - the pipeline quiesces: no flow run is left kRunning (never hangs);
///   - every run finishes exactly once: aero_failed_runs_total equals
///     the failed runs in the MetadataDb;
///   - no update is silently dropped: every detected upstream update is
///     accounted for as a published version, a permanent failure, or a
///     superseded trigger;
///   - no analysis retry is silently dropped: every scheduled analysis
///     retry either ran or was counted as superseded;
///   - stakeholders always get an answer: serve_latest() returns either
///     a fresh estimate or a stale one with an explicit reason;
///   - every required fault class actually fired and was recorded in the
///     structured incident log.
///
/// Determinism: a fixed-seed run is bit-identical across invocations —
/// same incident log, same final R(t) bytes (asserted below).
///
/// Each seed is registered as its own ctest case (tests/CMakeLists.txt)
/// so a failing seed is identifiable straight from the CI log.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "artifact_dump.hpp"
#include "core/platform.hpp"
#include "core/usecase_ww.hpp"
#include "epi/wastewater.hpp"
#include "obs/export.hpp"
#include "util/log.hpp"

namespace oa = osprey::aero;
namespace oc = osprey::core;
namespace of = osprey::fabric;
namespace ou = osprey::util;
using of::FaultKind;
using of::IncidentCategory;
using ou::kDay;
using ou::kHour;
using ou::kMinute;
using ou::kSecond;
using ou::SimTime;
using ou::Value;
using ou::ValueObject;

namespace {

/// Cheap-but-real workflow configuration: the full 4-plant pipeline at a
/// reduced horizon and MCMC budget, with retries and breakers enabled.
oc::WwUseCaseConfig chaos_config(std::uint64_t seed) {
  oc::WwUseCaseConfig config;
  config.horizon_days = 46;
  config.goldstein.iterations = 400;
  config.goldstein.burnin = 200;
  config.goldstein.thin = 2;
  config.aggregate_draws = 60;
  config.retry.max_attempts = 6;
  config.retry.initial_backoff = 20 * kMinute;
  config.retry.multiplier = 2.0;
  config.retry.jitter = 0.2;
  config.retry.seed = 0x5EEDULL ^ seed;
  config.breaker.failure_threshold = 4;
  config.breaker.open_timeout = 2 * kHour;
  config.breaker.half_open_successes = 1;
  return config;
}

/// The chaos plan for one sweep seed: probabilistic faults confined to
/// [day 28, day 44) (a quiet tail lets the pipeline converge or settle),
/// plus seed-varied scripted faults that guarantee every required fault
/// class fires in every seed.
of::FaultPlan make_plan(std::uint64_t seed) {
  of::FaultPlan plan(0xC8A05000ULL + seed);
  plan.set_active_window(28 * kDay, 44 * kDay);
  plan.set_rate(FaultKind::kTransferDrop, 0.04);
  plan.set_rate(FaultKind::kTransferStall, 0.04);
  plan.set_rate(FaultKind::kTransferCorrupt, 0.03);
  plan.set_rate(FaultKind::kComputeKill, 0.06);
  plan.set_rate(FaultKind::kAclRace, 0.03);
  plan.set_rate(FaultKind::kFlowStall, 0.03);
  // Auth expiry only on scopes whose validation happens inside the
  // orchestration layer's protected (step/transfer) contexts. Never
  // "flows" or "timers": those validations run outside any retry path.
  plan.set_rate(FaultKind::kAuthExpiry, of::scopes::kStorageRead, 0.02);
  plan.set_rate(FaultKind::kAuthExpiry, of::scopes::kStorageWrite, 0.02);
  plan.set_rate(FaultKind::kAuthExpiry, of::scopes::kTransfer, 0.02);
  plan.set_rate(FaultKind::kAuthExpiry, of::scopes::kCompute, 0.02);

  // Guaranteed coverage, seed-varied where possible:
  // the first raw upload to the durable store is corrupted in flight,
  plan.script_nth(FaultKind::kTransferCorrupt,
                  oc::WastewaterUseCase::kStorageName, 0);
  // the first R(t) analysis task is walltime-killed,
  plan.script_nth(FaultKind::kComputeKill, "bebop-compute", 0);
  // an early transfer-scope token validation expires,
  plan.script_nth(FaultKind::kAuthExpiry, of::scopes::kTransfer, 2);
  // the PBS machine is down across the first analysis submissions
  // (window length varies with the seed),
  plan.script_window(FaultKind::kEndpointOutage, "bebop-pbs",
                     28 * kDay + 6 * kHour,
                     28 * kDay + 8 * kHour + (seed % 4) * 2 * kHour);
  // and one plant's upstream feed goes dark for a seed-varied stretch.
  std::vector<osprey::epi::Plant> plants = osprey::epi::chicago_plants();
  const std::string flow = "ingest-" + plants[seed % plants.size()].name;
  plan.script_window(FaultKind::kSourceOutage, flow, 32 * kDay,
                     (33 + static_cast<SimTime>(seed % 3)) * kDay);
  return plan;
}

struct ChaosRun {
  std::unique_ptr<oc::OspreyPlatform> platform;
  std::unique_ptr<of::FaultPlan> plan;
  std::unique_ptr<oc::WastewaterUseCase> usecase;
};

ChaosRun run_chaos(std::uint64_t seed) {
  ChaosRun run;
  run.platform = std::make_unique<oc::OspreyPlatform>();
  run.plan = std::make_unique<of::FaultPlan>(make_plan(seed));
  run.platform->install_fault_plan(run.plan.get());
  // Per-operation timeout: a pathologically slow transfer becomes a
  // recoverable failure instead of an indefinitely late completion.
  run.platform->transfers().set_default_timeout(kHour);
  run.usecase = std::make_unique<oc::WastewaterUseCase>(*run.platform,
                                                        chaos_config(seed));
  run.usecase->build();
  run.usecase->run_to_end();
  // Quiet-tail drain: the active window closed on day 44, so remaining
  // retry chains, breaker probes and deferred triggers resolve here.
  run.platform->run_days(2);
  return run;
}

void assert_chaos_invariants(ChaosRun& run) {
  oa::AeroServer& server = run.platform->aero();
  const oa::MetadataDb& db = server.db();
  const of::FaultPlan& plan = *run.plan;

  // Quiescence: every flow run that started also finished.
  for (const auto& rec : db.runs()) {
    EXPECT_NE(rec.status, oa::RunStatus::kRunning)
        << "flow '" << rec.flow_name << "' (run " << rec.run_id
        << ") still running at quiescence";
  }

  // Every run finishes exactly once: the failed-run counter
  // (aero_failed_runs_total) agrees with the provenance.
  std::uint64_t failed_in_db = 0;
  for (const auto& rec : db.runs()) {
    if (rec.status == oa::RunStatus::kFailed) ++failed_in_db;
  }
  EXPECT_EQ(server.failed_runs(), failed_in_db);

  // Accounting: no update silently dropped. Every detected upstream
  // update either published a version, exhausted its retry budget
  // (permanent failure), or was superseded by fresher data.
  std::uint64_t published = 0;
  for (const auto& handles : run.usecase->ingestions()) {
    published += static_cast<std::uint64_t>(
        db.latest_version_number(handles.output_uuid));
  }
  EXPECT_EQ(server.updates_detected(),
            published + server.ingestion_permanent_failures() +
                server.superseded_triggers())
      << "updates=" << server.updates_detected() << " published=" << published
      << " permanent=" << server.ingestion_permanent_failures()
      << " superseded=" << server.superseded_triggers();

  // Analysis retries are accounted for too: every retry scheduled at an
  // analysis site either started a "retry N:" run or was superseded by
  // a newer trigger before its timer fired.
  std::set<std::string> analysis_sites;
  std::uint64_t retry_runs = 0;
  for (const auto& rec : db.runs()) {
    if (rec.kind != oa::FlowKind::kAnalysis) continue;
    analysis_sites.insert(rec.flow_name);
    if (rec.trigger.rfind("retry ", 0) == 0) ++retry_runs;
  }
  std::uint64_t retries_scheduled = 0;
  for (const of::Incident& inc : plan.log().incidents()) {
    if (inc.component == "aero" && inc.kind == "retry-scheduled" &&
        analysis_sites.count(inc.site) > 0) {
      ++retries_scheduled;
    }
  }
  EXPECT_EQ(retries_scheduled,
            retry_runs + server.analysis_superseded_triggers())
      << "scheduled=" << retries_scheduled << " retry_runs=" << retry_runs
      << " superseded=" << server.analysis_superseded_triggers();

  // Graceful degradation: a stakeholder asking for any data product gets
  // an estimate or an honest staleness signal — never nothing.
  auto check_served = [&](const std::string& uuid) {
    oa::AeroServer::ServedEstimate est = server.serve_latest(uuid);
    if (!est.version.has_value()) {
      EXPECT_TRUE(est.stale) << uuid;
      EXPECT_FALSE(est.reason.empty()) << uuid;
    }
  };
  for (const auto& outputs : run.usecase->analysis_outputs()) {
    for (const std::string& uuid : outputs) check_served(uuid);
  }
  for (const std::string& uuid : run.usecase->aggregate_outputs()) {
    check_served(uuid);
  }

  // Required fault classes all fired (scripted injections guarantee it).
  EXPECT_TRUE(plan.exercised(FaultKind::kTransferCorrupt));
  EXPECT_TRUE(plan.exercised(FaultKind::kComputeKill));
  EXPECT_TRUE(plan.exercised(FaultKind::kAuthExpiry));
  EXPECT_TRUE(plan.exercised(FaultKind::kEndpointOutage));
  EXPECT_TRUE(plan.exercised(FaultKind::kSourceOutage));

  // Every injected fault is in the structured incident log, and the
  // orchestration layer demonstrably reacted to the chaos.
  EXPECT_EQ(plan.log().count(IncidentCategory::kFault),
            plan.injected_total());
  EXPECT_GT(plan.log().count(IncidentCategory::kRecovery) +
                plan.log().count(IncidentCategory::kDegraded),
            0u);
  EXPECT_GE(server.retries() + server.deferred_triggers() +
                server.permanent_failures(),
            1u);
}

/// Bytes of the latest version of a data product, read back through the
/// storage endpoint as a stakeholder would ("" when never published).
std::string latest_bytes(const ChaosRun& run, const std::string& uuid) {
  auto version = run.platform->aero().db().latest_version(uuid);
  if (!version.has_value()) return "";
  const oc::OspreyPlatform& platform = *run.platform;
  return platform.storage_endpoint(version->endpoint)
      .get(version->collection, version->path, run.platform->aero().token())
      .bytes;
}

}  // namespace

class ChaosSeedTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { ou::set_log_level(ou::LogLevel::kOff); }
  void TearDown() override { ou::set_log_level(ou::LogLevel::kWarn); }
};

TEST_P(ChaosSeedTest, ConvergesOrDegradesGracefully) {
  ChaosRun run = run_chaos(static_cast<std::uint64_t>(GetParam()));
  assert_chaos_invariants(run);
  const osprey::obs::MetricsRegistry& metrics = run.platform->metrics();
  osprey::testing::dump_artifacts(
      "chaos_seed_" + std::to_string(GetParam()),
      {{"incidents.txt", run.plan->log().to_string()},
       {"trace.json", osprey::obs::chrome_trace_json(run.platform->tracer())},
       {"metrics.json", metrics.snapshot().to_json()},
       {"metrics.prom", osprey::obs::prometheus_text(metrics)}});
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSeedTest, ::testing::Range(0, 16));

TEST(ChaosDeterminism, FixedSeedRunIsBitIdentical) {
  ou::set_log_level(ou::LogLevel::kOff);
  ChaosRun a = run_chaos(0);
  ChaosRun b = run_chaos(0);
  ou::set_log_level(ou::LogLevel::kWarn);

  // Same incident log, byte for byte.
  EXPECT_EQ(a.plan->log().to_string(), b.plan->log().to_string());
  EXPECT_EQ(a.plan->injected_total(), b.plan->injected_total());

  // Same trace counters.
  oa::AeroServer& sa = a.platform->aero();
  oa::AeroServer& sb = b.platform->aero();
  EXPECT_EQ(sa.polls(), sb.polls());
  EXPECT_EQ(sa.updates_detected(), sb.updates_detected());
  EXPECT_EQ(sa.ingestion_runs(), sb.ingestion_runs());
  EXPECT_EQ(sa.analysis_runs(), sb.analysis_runs());
  EXPECT_EQ(sa.failed_runs(), sb.failed_runs());
  EXPECT_EQ(sa.retries(), sb.retries());
  EXPECT_EQ(sa.permanent_failures(), sb.permanent_failures());
  EXPECT_EQ(sa.superseded_triggers(), sb.superseded_triggers());
  EXPECT_EQ(sa.analysis_superseded_triggers(),
            sb.analysis_superseded_triggers());

  // Same final R(t): every published data product is byte-identical.
  for (std::size_t i = 0; i < a.usecase->analysis_outputs().size(); ++i) {
    const auto& uuids_a = a.usecase->analysis_outputs()[i];
    const auto& uuids_b = b.usecase->analysis_outputs()[i];
    ASSERT_EQ(uuids_a.size(), uuids_b.size());
    for (std::size_t k = 0; k < uuids_a.size(); ++k) {
      EXPECT_EQ(latest_bytes(a, uuids_a[k]), latest_bytes(b, uuids_b[k]))
          << "analysis " << i << " output " << k;
    }
  }
  ASSERT_EQ(a.usecase->aggregate_outputs().size(),
            b.usecase->aggregate_outputs().size());
  for (std::size_t k = 0; k < a.usecase->aggregate_outputs().size(); ++k) {
    EXPECT_EQ(latest_bytes(a, a.usecase->aggregate_outputs()[k]),
              latest_bytes(b, b.usecase->aggregate_outputs()[k]))
        << "aggregate output " << k;
  }
}

// ---------------------------------------------------------------------------
// Deterministic per-class fault behaviour (scripted, no sweep).
// ---------------------------------------------------------------------------

TEST(ChaosFaults, ComputeKillFailsTaskAndFreesTheNodeEarly) {
  of::EventLoop loop;
  of::AuthService auth;
  of::BatchScheduler pbs(loop, 1, "pbs");
  of::ComputeEndpoint compute("c", loop, auth, pbs);
  of::FaultPlan plan(5);
  plan.script_nth(FaultKind::kComputeKill, "c", 0);
  loop.set_fault_plan(&plan);
  std::string token = auth.issue_full_token("u");
  bool body_ran = false;
  std::string fn = compute.register_function(
      "job",
      [&body_ran](const Value&) {
        body_ran = true;
        return Value(1);
      },
      2 * kHour);

  ou::set_log_level(ou::LogLevel::kOff);
  bool killed = false;
  SimTime completed_at = -1;
  compute.execute(fn, Value(ValueObject{}), token,
                  [&](const Value& result, const of::ComputeTaskRecord& rec) {
                    killed = rec.status == of::ComputeTaskStatus::kFailed &&
                             rec.error.find("killed") != std::string::npos;
                    EXPECT_TRUE(result.is_null());
                    completed_at = rec.completed;
                  });
  loop.run_all();
  ou::set_log_level(ou::LogLevel::kWarn);

  EXPECT_TRUE(killed);
  EXPECT_FALSE(body_ran);  // outputs never materialize
  // The kill lands mid-run, before the full modeled cost.
  EXPECT_GT(completed_at, 0);
  EXPECT_LT(completed_at, 2 * kHour);
  EXPECT_TRUE(plan.exercised(FaultKind::kComputeKill));

  // The next task (not scripted) runs normally.
  Value second;
  compute.execute(fn, Value(ValueObject{}), token,
                  [&](const Value& r, const of::ComputeTaskRecord& rec) {
                    EXPECT_EQ(rec.status, of::ComputeTaskStatus::kSucceeded);
                    second = r;
                  });
  loop.run_all();
  EXPECT_EQ(second.as_int(), 1);
}

TEST(ChaosFaults, SchedulerOutageWindowDelaysJobStarts) {
  of::EventLoop loop;
  of::FaultPlan plan(6);
  plan.script_window(FaultKind::kEndpointOutage, "pbs", 0, kHour);
  of::BatchScheduler pbs(loop, 2, "pbs");
  loop.set_fault_plan(&plan);

  of::JobSpec spec;
  spec.name = "j";
  spec.nodes = 1;
  spec.run = [] { return 10 * kMinute; };
  of::JobId id = pbs.submit(spec);
  loop.run_all();

  // The job sat queued for the whole outage and started when it lifted.
  EXPECT_EQ(pbs.job(id).started, kHour);
  EXPECT_EQ(pbs.job(id).state, of::JobState::kComplete);
  EXPECT_TRUE(plan.exercised(FaultKind::kEndpointOutage));
}

TEST(ChaosFaults, ComputeEndpointOutageFailsTasksFast) {
  of::EventLoop loop;
  of::AuthService auth;
  of::ComputeEndpoint login("login", loop, auth, 2);
  of::FaultPlan plan(7);
  plan.script_window(FaultKind::kEndpointOutage, "login", 0, kHour);
  loop.set_fault_plan(&plan);
  std::string token = auth.issue_full_token("u");
  std::string fn = login.register_function(
      "f", [](const Value&) { return Value(1); }, kMinute);

  ou::set_log_level(ou::LogLevel::kOff);
  bool unreachable = false;
  login.execute(fn, Value(ValueObject{}), token,
                [&](const Value&, const of::ComputeTaskRecord& rec) {
                  unreachable =
                      rec.status == of::ComputeTaskStatus::kFailed &&
                      rec.error.find("unreachable") != std::string::npos;
                });
  loop.run_until(30 * kMinute);
  ou::set_log_level(ou::LogLevel::kWarn);
  EXPECT_TRUE(unreachable);

  // After the window the endpoint serves normally.
  bool ok = false;
  loop.run_until(kHour);
  login.execute(fn, Value(ValueObject{}), token,
                [&](const Value&, const of::ComputeTaskRecord& rec) {
                  ok = rec.status == of::ComputeTaskStatus::kSucceeded;
                });
  loop.run_all();
  EXPECT_TRUE(ok);
}

TEST(ChaosFaults, AuthExpiryIsTransient) {
  of::EventLoop loop;
  of::AuthService auth;
  of::FaultPlan plan(8);
  plan.script_nth(FaultKind::kAuthExpiry, of::scopes::kTransfer, 0);
  auth.set_fault_plan(&plan, &loop);
  std::string token = auth.issue_full_token("u");
  EXPECT_THROW(auth.validate(token, of::scopes::kTransfer), ou::AuthError);
  // The very next validation of the same (perfectly valid) token passes.
  EXPECT_NO_THROW(auth.validate(token, of::scopes::kTransfer));
  // Other scopes were never affected.
  EXPECT_NO_THROW(auth.validate(token, of::scopes::kStorageRead));
  EXPECT_TRUE(plan.exercised(FaultKind::kAuthExpiry));
}

TEST(ChaosFaults, AclRaceIsTransient) {
  of::EventLoop loop;
  of::AuthService auth;
  of::StorageEndpoint store("s", loop, auth);
  of::FaultPlan plan(9);
  plan.script_nth(FaultKind::kAclRace, "s", 0);
  loop.set_fault_plan(&plan);
  std::string token = auth.issue_full_token("u");
  store.create_collection("c", token);
  EXPECT_THROW(store.put("c", "x", "data", token), ou::AuthError);
  EXPECT_NO_THROW(store.put("c", "x", "data", token));
  EXPECT_EQ(store.get("c", "x", token).bytes, "data");
  EXPECT_TRUE(plan.exercised(FaultKind::kAclRace));
}

TEST(ChaosFaults, FlowStallDelaysTheStepWithoutFailingTheRun) {
  of::EventLoop loop;
  of::AuthService auth;
  of::FlowsService flows(loop, auth);
  of::FaultPlan plan(10);
  plan.script_nth(FaultKind::kFlowStall, "f", 0);
  loop.set_fault_plan(&plan);
  std::string token = auth.issue_full_token("u");

  of::FlowDefinition flow;
  flow.name = "f";
  flow.steps.push_back(of::FlowStep{
      "step", [](of::StepDone done) { done(true, ""); }});
  bool succeeded = false;
  SimTime ended = -1;
  flows.run(flow, token, [&](const of::FlowRunRecord& rec) {
    succeeded = rec.status == of::FlowRunStatus::kSucceeded;
    ended = rec.ended;
  });
  loop.run_all();
  EXPECT_TRUE(succeeded);
  EXPECT_EQ(ended, plan.stall_delay);  // latency, not failure
  EXPECT_TRUE(plan.exercised(FaultKind::kFlowStall));
}
