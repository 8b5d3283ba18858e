/// Failure injection: flaky upstream feeds, injected transfer failures,
/// walltime kills — and the orchestration layer's recovery behaviour
/// (counted fetch errors, failed-run provenance, AERO retries).
/// Upstream outages and transfer drops are scripted on the event loop's
/// fabric::FaultPlan, so the same chaos machinery drives unit and sweep
/// tests.

#include <gtest/gtest.h>

#include "aero/server.hpp"
#include "util/log.hpp"
#include "util/error.hpp"

namespace oa = osprey::aero;
namespace of = osprey::fabric;
namespace ou = osprey::util;
using ou::kDay;
using ou::kHour;
using ou::kMinute;
using ou::kSecond;
using ou::Value;
using ou::ValueObject;

namespace {

Value identity_transform(const Value& args) {
  ValueObject out;
  out["output"] = args.at("input");
  return Value(std::move(out));
}

Value trivial_analysis(const Value& args) {
  ValueObject outputs;
  outputs["out.txt"] =
      Value("n=" + std::to_string(args.at("inputs").size()));
  ValueObject out;
  out["outputs"] = Value(std::move(outputs));
  return Value(std::move(out));
}

}  // namespace

class FailureInjectionTest : public ::testing::Test {
 protected:
  of::EventLoop loop;
  of::AuthService auth;
  of::TimerService timers{loop, auth};
  of::TransferService transfers{loop, auth, kSecond, 100.0e6};
  of::FlowsService flows{loop, auth};
  oa::AeroServer server{loop, auth, timers, transfers, flows};
  of::StorageEndpoint eagle{"eagle", loop, auth};
  of::StorageEndpoint scratch{"scratch", loop, auth};
  of::ComputeEndpoint login{"login", loop, auth, 2};
  std::string transform_fn, analysis_fn;

  void SetUp() override {
    osprey::util::set_log_level(osprey::util::LogLevel::kOff);
    eagle.create_collection("data", server.token());
    scratch.create_collection("staging", server.token());
    transform_fn =
        login.register_function("id", identity_transform, 10 * kSecond);
    analysis_fn =
        login.register_function("triv", trivial_analysis, 10 * kSecond);
  }

  void TearDown() override {
    osprey::util::set_log_level(osprey::util::LogLevel::kWarn);
  }

  oa::IngestionFlowSpec spec_with(std::shared_ptr<oa::DataSource> source,
                                  int max_attempts = 0) {
    oa::IngestionFlowSpec spec;
    spec.name = "ing";
    spec.source = std::move(source);
    spec.poll_period = kDay;
    spec.compute = &login;
    spec.function_id = transform_fn;
    spec.staging = &scratch;
    spec.staging_collection = "staging";
    spec.storage = &eagle;
    spec.collection = "data";
    spec.base_path = "ing";
    spec.retry.max_attempts = max_attempts;
    spec.retry.initial_backoff = 10 * kMinute;
    return spec;
  }

  oa::AnalysisFlowSpec analysis_with(const std::string& input_uuid,
                                     const std::string& function_id) {
    oa::AnalysisFlowSpec ana;
    ana.name = "ana";
    ana.input_uuids = {input_uuid};
    ana.policy = oa::TriggerPolicy::kAny;
    ana.compute = &login;
    ana.function_id = function_id;
    ana.staging = &scratch;
    ana.staging_collection = "staging";
    ana.storage = &eagle;
    ana.collection = "data";
    ana.base_path = "ana";
    ana.output_names = {"out.txt"};
    return ana;
  }
};

TEST_F(FailureInjectionTest, FlakySourceDoesNotKillTheServer) {
  // The upstream feed is down for the first three days — scripted as a
  // source-outage window on the fault plan (formerly a bespoke
  // FlakySource that threw on those days).
  of::FaultPlan plan(7);
  plan.script_window(of::FaultKind::kSourceOutage, "ing", 0, 3 * kDay);
  loop.set_fault_plan(&plan);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://flaky/feed",
      std::vector<std::pair<of::SimTime, std::string>>{{0, "payload"}});
  auto handles = server.register_ingestion(spec_with(source));
  loop.run_until(5 * kDay);
  EXPECT_EQ(server.fetch_errors(), 3u);
  // Day 3's poll succeeded and ingested.
  EXPECT_EQ(server.updates_detected(), 1u);
  EXPECT_EQ(server.db().latest_version_number(handles.output_uuid), 1);
  // The outage shows up in the structured incident log.
  EXPECT_GE(plan.log().count(of::IncidentCategory::kFault), 1u);
}

TEST_F(FailureInjectionTest, InjectedTransferFailureFailsTheRun) {
  of::FaultPlan plan(99);
  plan.set_rate(of::FaultKind::kTransferDrop, 1.0);  // every transfer fails
  loop.set_fault_plan(&plan);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://ok/feed", std::vector<std::pair<of::SimTime, std::string>>{
                             {0, "data"}});
  auto handles = server.register_ingestion(spec_with(source));
  loop.run_until(kDay);
  EXPECT_GE(server.failed_runs(), 1u);
  EXPECT_EQ(server.db().latest_version_number(handles.output_uuid), 0);
  EXPECT_GE(plan.injected(of::FaultKind::kTransferDrop), 1u);
  // Provenance records the failure.
  bool saw_failed = false;
  for (const auto& run : server.db().runs()) {
    if (run.status == oa::RunStatus::kFailed) saw_failed = true;
  }
  EXPECT_TRUE(saw_failed);
}

TEST_F(FailureInjectionTest, RetrySucceedsAfterTransientFailures) {
  // The first two transfers landing at 'eagle' drop; with retries the
  // ingestion lands on the third attempt.
  of::FaultPlan plan(7);
  plan.script_nth(of::FaultKind::kTransferDrop, "eagle", 0);
  plan.script_nth(of::FaultKind::kTransferDrop, "eagle", 1);
  loop.set_fault_plan(&plan);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://ok/feed", std::vector<std::pair<of::SimTime, std::string>>{
                             {0, "data"}});
  auto handles = server.register_ingestion(spec_with(source, /*retries=*/10));
  loop.run_until(2 * kDay);
  EXPECT_EQ(server.db().latest_version_number(handles.output_uuid), 1)
      << "retries: " << server.retries()
      << " failed: " << server.failed_runs();
  EXPECT_EQ(eagle.get("data", "ing/transformed", server.token()).bytes,
            "data");
  EXPECT_EQ(plan.injected(of::FaultKind::kTransferDrop), 2u);
  EXPECT_EQ(server.retries(), 2u);
  EXPECT_EQ(server.failed_runs(), 2u);
}

TEST_F(FailureInjectionTest, AnalysisRetriesAfterComputeFailure) {
  // Analysis function fails the first two invocations, then succeeds.
  int calls = 0;
  std::string flaky_fn = login.register_function(
      "flaky",
      [&calls](const Value& args) -> Value {
        if (++calls <= 2) throw std::runtime_error("transient OOM");
        return trivial_analysis(args);
      },
      10 * kSecond);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://ok/feed", std::vector<std::pair<of::SimTime, std::string>>{
                             {0, "data"}});
  auto handles = server.register_ingestion(spec_with(source));

  oa::AnalysisFlowSpec ana = analysis_with(handles.output_uuid, flaky_fn);
  ana.retry.max_attempts = 3;
  ana.retry.initial_backoff = 10 * kMinute;
  auto outputs = server.register_analysis(std::move(ana));

  loop.run_until(kDay);
  EXPECT_EQ(calls, 3);  // two failures + the successful retry
  EXPECT_EQ(server.db().latest_version_number(outputs[0]), 1);
  EXPECT_EQ(server.failed_runs(), 2u);
  EXPECT_EQ(server.retries(), 2u);
}

TEST_F(FailureInjectionTest, SupersededAnalysisRetryIsCounted) {
  // The analysis fails once and schedules a retry 3h out; a fresh input
  // version at 1h re-triggers it first, so the retry is obsolete when
  // its timer fires. It must be accounted for, never silently dropped.
  // A plan with no rates or scripts injects nothing; its log collects
  // the server's incidents.
  of::FaultPlan plan;
  loop.set_fault_plan(&plan);
  int calls = 0;
  std::string flaky_fn = login.register_function(
      "flaky",
      [&calls](const Value& args) -> Value {
        if (++calls == 1) throw std::runtime_error("transient OOM");
        return trivial_analysis(args);
      },
      10 * kSecond);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://ok/feed", std::vector<std::pair<of::SimTime, std::string>>{
                             {0, "a"}, {kHour, "b"}});
  oa::IngestionFlowSpec ing = spec_with(source);
  ing.poll_period = kHour;
  auto handles = server.register_ingestion(std::move(ing));

  oa::AnalysisFlowSpec ana = analysis_with(handles.output_uuid, flaky_fn);
  ana.retry.max_attempts = 2;
  ana.retry.initial_backoff = 3 * kHour;
  auto outputs = server.register_analysis(std::move(ana));

  loop.run_until(kDay);
  EXPECT_EQ(calls, 2);  // the failure and the re-triggered run; no retry
  EXPECT_EQ(server.db().latest_version_number(outputs[0]), 1);
  EXPECT_EQ(server.retries(), 1u);
  std::vector<std::string> superseded;
  for (const of::Incident& inc : plan.log().incidents()) {
    if (inc.kind == "trigger-superseded") {
      superseded.push_back(inc.site + " | " + inc.detail);
    }
  }
  EXPECT_EQ(superseded,
            (std::vector<std::string>{
                "ana | retry 1 obsolete: newer trigger in flight"}));
  EXPECT_EQ(server.analysis_superseded_triggers(), 1u);
  // Ingestion's supersede counter keeps its own identity.
  EXPECT_EQ(server.superseded_triggers(), 0u);
}

TEST_F(FailureInjectionTest, NoRetryBudgetMeansPermanentFailure) {
  std::string always_bad = login.register_function(
      "bad", [](const Value&) -> Value { throw std::runtime_error("no"); },
      kSecond);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://ok/feed", std::vector<std::pair<of::SimTime, std::string>>{
                             {0, "data"}});
  oa::IngestionFlowSpec spec = spec_with(source, /*retries=*/0);
  spec.function_id = always_bad;
  auto handles = server.register_ingestion(std::move(spec));
  loop.run_until(kDay);
  EXPECT_EQ(server.db().latest_version_number(handles.output_uuid), 0);
  EXPECT_EQ(server.retries(), 0u);
  EXPECT_EQ(server.failed_runs(), 1u);
}

TEST(WalltimeKill, BatchTaskFailsAndJobTimesOut) {
  of::EventLoop loop;
  of::AuthService auth;
  of::BatchScheduler pbs(loop, 1);
  of::ComputeEndpoint compute("compute", loop, auth, pbs);
  compute.set_batch_walltime(kHour);
  std::string token = auth.issue_full_token("u");

  bool fn_ran = false;
  std::string fn = compute.register_function(
      "long-job",
      [&fn_ran](const Value&) {
        fn_ran = true;
        return Value(1);
      },
      3 * kHour);  // cost exceeds the 1h walltime

  osprey::util::set_log_level(osprey::util::LogLevel::kOff);
  bool saw_failure = false;
  of::SimTime completed_at = -1;
  compute.execute(fn, Value(ValueObject{}), token,
                  [&](const Value& result, const of::ComputeTaskRecord& rec) {
                    saw_failure = rec.status == of::ComputeTaskStatus::kFailed;
                    EXPECT_NE(rec.error.find("walltime"), std::string::npos);
                    EXPECT_TRUE(result.is_null());
                    completed_at = rec.completed;
                  });
  loop.run_all();
  osprey::util::set_log_level(osprey::util::LogLevel::kWarn);

  EXPECT_TRUE(saw_failure);
  EXPECT_FALSE(fn_ran);  // outputs never materialize
  EXPECT_EQ(completed_at, kHour);  // killed at the walltime
  // The scheduler's view agrees.
  ASSERT_EQ(pbs.jobs().size(), 1u);
  EXPECT_EQ(pbs.jobs()[0].state, of::JobState::kTimeout);
  EXPECT_EQ(pbs.jobs()[0].ended - pbs.jobs()[0].started, kHour);
}

TEST(WalltimeKill, WithinWalltimeSucceeds) {
  of::EventLoop loop;
  of::AuthService auth;
  of::BatchScheduler pbs(loop, 1);
  of::ComputeEndpoint compute("compute", loop, auth, pbs);
  compute.set_batch_walltime(kHour);
  std::string token = auth.issue_full_token("u");
  std::string fn = compute.register_function(
      "ok-job", [](const Value&) { return Value(7); }, 30 * kMinute);
  Value result;
  compute.execute(fn, Value(ValueObject{}), token,
                  [&](const Value& r, const of::ComputeTaskRecord& rec) {
                    result = r;
                    EXPECT_EQ(rec.status, of::ComputeTaskStatus::kSucceeded);
                  });
  loop.run_all();
  EXPECT_EQ(result.as_int(), 7);
  EXPECT_EQ(pbs.jobs()[0].state, of::JobState::kComplete);
}

TEST(TransferInjection, RateZeroNeverFails) {
  of::EventLoop loop;
  of::AuthService auth;
  of::StorageEndpoint a("a", loop, auth), b("b", loop, auth);
  of::TransferService transfers(loop, auth);
  std::string token = auth.issue_full_token("u");
  a.create_collection("c", token);
  b.create_collection("c", token);
  a.put("c", "x", "data", token);
  of::FaultPlan plan(1);
  plan.set_rate(of::FaultKind::kTransferDrop, 0.0);
  loop.set_fault_plan(&plan);
  for (int i = 0; i < 20; ++i) {
    transfers.transfer(a, "c", "x", b, "c", "x" + std::to_string(i), token);
  }
  loop.run_all();
  EXPECT_EQ(transfers.completed_count(), 20u);
  EXPECT_EQ(plan.injected(of::FaultKind::kTransferDrop), 0u);
}

TEST(TransferInjection, RateIsApproximatelyHonored) {
  of::EventLoop loop;
  of::AuthService auth;
  of::StorageEndpoint a("a", loop, auth), b("b", loop, auth);
  of::TransferService transfers(loop, auth);
  std::string token = auth.issue_full_token("u");
  a.create_collection("c", token);
  b.create_collection("c", token);
  a.put("c", "x", "data", token);
  of::FaultPlan plan(42);
  plan.set_rate(of::FaultKind::kTransferDrop, 0.3);
  loop.set_fault_plan(&plan);
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    transfers.transfer(a, "c", "x", b, "c", "y" + std::to_string(i), token);
  }
  loop.run_all();
  const std::uint64_t dropped = plan.injected(of::FaultKind::kTransferDrop);
  double rate = static_cast<double>(dropped) / n;
  EXPECT_NEAR(rate, 0.3, 0.08);
  EXPECT_EQ(transfers.completed_count() + dropped,
            static_cast<std::size_t>(n));
}

TEST(TransferInjection, InvalidRateRejected) {
  of::FaultPlan plan;
  EXPECT_THROW(plan.set_rate(of::FaultKind::kTransferDrop, 1.5),
               ou::InvalidArgument);
  EXPECT_THROW(plan.set_rate(of::FaultKind::kTransferDrop, -0.1),
               ou::InvalidArgument);
  EXPECT_THROW(plan.set_rate(of::FaultKind::kTransferDrop, "b", 1.5),
               ou::InvalidArgument);
  EXPECT_THROW(plan.set_rate(of::FaultKind::kTransferDrop, "b", -0.1),
               ou::InvalidArgument);
}

TEST(TransferInjection, CorruptedObjectIsNotAccepted) {
  of::EventLoop loop;
  of::AuthService auth;
  of::StorageEndpoint a("a", loop, auth), b("b", loop, auth);
  of::TransferService transfers(loop, auth);
  of::FaultPlan plan(3);
  plan.script_nth(of::FaultKind::kTransferCorrupt, "b", 0);
  loop.set_fault_plan(&plan);
  std::string token = auth.issue_full_token("u");
  a.create_collection("c", token);
  b.create_collection("c", token);
  a.put("c", "x", "data", token);

  bool saw_mismatch = false;
  transfers.transfer(a, "c", "x", b, "c", "y", token,
                     [&](const of::TransferRecord& rec) {
                       saw_mismatch =
                           rec.status == of::TransferStatus::kFailed &&
                           rec.error.find("checksum mismatch") !=
                               std::string::npos;
                     });
  loop.run_all();
  EXPECT_TRUE(saw_mismatch);
  // The corrupted bytes never landed at the destination.
  EXPECT_THROW(b.get("c", "y", token), ou::NotFound);
  EXPECT_EQ(plan.injected(of::FaultKind::kTransferCorrupt), 1u);
  EXPECT_GE(plan.log().count(of::IncidentCategory::kRecovery), 1u);

  // A clean re-transfer of the same object is accepted.
  bool ok = false;
  transfers.transfer(a, "c", "x", b, "c", "y", token,
                     [&](const of::TransferRecord& rec) {
                       ok = rec.status == of::TransferStatus::kSucceeded;
                     });
  loop.run_all();
  EXPECT_TRUE(ok);
  EXPECT_EQ(b.get("c", "y", token).bytes, "data");
}

TEST_F(FailureInjectionTest, CorruptedTransferIsRejectedAndRetried) {
  of::FaultPlan plan(11);
  // Corrupt the first transfer landing at 'eagle'; the retry's
  // transfers are clean.
  plan.script_nth(of::FaultKind::kTransferCorrupt, "eagle", 0);
  loop.set_fault_plan(&plan);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://ok/feed", std::vector<std::pair<of::SimTime, std::string>>{
                             {0, "data"}});
  auto handles = server.register_ingestion(spec_with(source, /*retries=*/3));
  loop.run_until(kDay);
  // Digest verification rejected the corrupted object; the retry landed
  // the pristine bytes end to end.
  EXPECT_EQ(server.db().latest_version_number(handles.output_uuid), 1);
  EXPECT_EQ(eagle.get("data", "ing/transformed", server.token()).bytes,
            "data");
  EXPECT_GE(server.retries(), 1u);
  EXPECT_GE(server.failed_runs(), 1u);
  EXPECT_EQ(plan.injected(of::FaultKind::kTransferCorrupt), 1u);
  bool saw_rejection = false;
  for (const auto& inc : plan.log().incidents()) {
    if (inc.kind == "corrupt-payload-rejected") saw_rejection = true;
  }
  EXPECT_TRUE(saw_rejection);
}

// ---------------------------------------------------------------------------
// Circuit-breaker deferral, characterized per flow kind: the flow fails
// once (threshold 1 opens the breaker), a fresh trigger arrives while the
// breaker is open, is deferred, and runs as the half-open probe.
// ---------------------------------------------------------------------------

class BreakerDeferralTest
    : public FailureInjectionTest,
      public ::testing::WithParamInterface<oa::FlowKind> {};

TEST_P(BreakerDeferralTest, DeferredTriggerRunsAsTheHalfOpenProbe) {
  const bool analysis = GetParam() == oa::FlowKind::kAnalysis;
  of::FaultPlan plan;
  loop.set_fault_plan(&plan);
  // Fails on its first call only.
  int calls = 0;
  std::string flaky_fn = login.register_function(
      "flaky",
      [&calls, analysis](const Value& args) {
        if (++calls == 1) throw std::runtime_error("transient");
        return analysis ? trivial_analysis(args) : identity_transform(args);
      },
      10 * kSecond);
  ou::CircuitBreakerConfig breaker;
  breaker.failure_threshold = 1;
  breaker.open_timeout = 3 * kHour;

  // A new upstream version at 1h: inside the 3h open window.
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://ok/feed", std::vector<std::pair<of::SimTime, std::string>>{
                             {0, "a"}, {kHour, "b"}});
  oa::IngestionFlowSpec ing = spec_with(source);
  ing.poll_period = kHour;
  if (!analysis) {
    ing.function_id = flaky_fn;
    ing.breaker = breaker;
  }
  auto handles = server.register_ingestion(std::move(ing));
  if (analysis) {
    oa::AnalysisFlowSpec ana = analysis_with(handles.output_uuid, flaky_fn);
    ana.breaker = breaker;
    server.register_analysis(std::move(ana));
  }
  loop.run_until(kDay);

  const std::string site = analysis ? "ana" : "ing";
  const std::string probe_at =
      analysis ? "d000 03:00:23.001" : "d000 03:00:11.001";
  std::vector<std::string> incidents;
  for (const of::Incident& inc : plan.log().incidents()) {
    incidents.push_back(inc.kind + " | " + inc.site + " | " + inc.detail);
  }
  EXPECT_EQ(incidents,
            (std::vector<std::string>{
                "circuit-opened | " + site +
                    " | after 1 consecutive failure(s)",
                "degraded | " + site + " | " +
                    (analysis ? "analysis 'ana'" : "ingestion 'ing'") +
                    " exhausted its retry budget; serving last-good "
                    "estimates",
                "trigger-deferred | " + site + " | circuit open; probe at " +
                    probe_at,
                "circuit-half-open | " + site + " | admitting probe run",
                "circuit-closed | " + site + " | probe(s) succeeded",
                "recovered | " + site + " | fresh estimate published"}));

  std::vector<std::string> runs;
  for (const oa::RunRecord& run : server.db().runs()) {
    runs.push_back(run.flow_name + " | " + run.trigger + " | " +
                   (run.status == oa::RunStatus::kSucceeded ? "ok" : "failed"));
  }
  const std::vector<std::string> expected_runs =
      analysis ? std::vector<std::string>{"ing | poll:https://ok/feed | ok",
                                          "ana | update of ing | failed",
                                          "ing | poll:https://ok/feed | ok",
                                          "ana | update of ing (probe) | ok"}
               : std::vector<std::string>{"ing | poll:https://ok/feed | failed",
                                          "ing | probe:https://ok/feed | ok"};
  EXPECT_EQ(runs, expected_runs);
  EXPECT_EQ(server.deferred_triggers(), 1u);
}

INSTANTIATE_TEST_SUITE_P(FlowKinds, BreakerDeferralTest,
                         ::testing::Values(oa::FlowKind::kIngestion,
                                           oa::FlowKind::kAnalysis));
