#include "aero/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace oa = osprey::aero;
namespace obs = osprey::obs;
namespace of = osprey::fabric;
namespace ou = osprey::util;
using ou::kDay;
using ou::kHour;
using ou::kMinute;
using ou::kSecond;
using ou::Value;
using ou::ValueObject;

namespace {

/// Transformation: upper-cases the payload.
Value upper_transform(const Value& args) {
  std::string s = args.at("input").as_string();
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  ValueObject out;
  out["output"] = Value(s);
  return Value(std::move(out));
}

/// Analysis: concatenates all input payloads in lexicographic payload
/// order (UUIDs are run-dependent, payload order is not).
Value concat_analysis(const Value& args) {
  std::vector<std::string> pieces;
  for (const auto& [uuid, bytes] : args.at("inputs").as_object()) {
    (void)uuid;
    pieces.push_back(bytes.as_string());
  }
  std::sort(pieces.begin(), pieces.end());
  std::string acc;
  for (const std::string& p : pieces) {
    acc += p;
    acc += "|";
  }
  ValueObject outputs;
  outputs["combined.txt"] = Value(acc);
  ValueObject out;
  out["outputs"] = Value(std::move(outputs));
  return Value(std::move(out));
}

/// Analysis with two outputs: the first three bytes of the (single)
/// input and the rest.
Value split_analysis(const Value& args) {
  std::string joined;
  for (const auto& [uuid, bytes] : args.at("inputs").as_object()) {
    (void)uuid;
    joined += bytes.as_string();
  }
  ValueObject outputs;
  outputs["head.txt"] = Value(joined.substr(0, 3));
  outputs["tail.txt"] = Value(joined.substr(3));
  ValueObject out;
  out["outputs"] = Value(std::move(outputs));
  return Value(std::move(out));
}

/// Names of the "step:" spans recorded for flow `flow`, in order.
std::vector<std::string> step_names(const obs::TraceRecorder& recorder,
                                    const std::string& flow) {
  std::vector<std::string> names;
  for (const obs::SpanRecord& span : recorder.snapshot()) {
    if (span.name.rfind("step:", 0) == 0 && span.detail == flow) {
      names.push_back(span.name.substr(5));
    }
  }
  return names;
}

/// The first span named `name` (fails the test when there is none).
obs::SpanRecord span_named(const obs::TraceRecorder& recorder,
                           const std::string& name) {
  for (const obs::SpanRecord& span : recorder.snapshot()) {
    if (span.name == name) return span;
  }
  ADD_FAILURE() << "no span named " << name;
  return {};
}

}  // namespace

class AeroServerTest : public ::testing::Test {
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
  std::string transform_fn;
  std::string analysis_fn;

  void SetUp() override {
    eagle.create_collection("data", server.token());
    scratch.create_collection("staging", server.token());
    transform_fn =
        login.register_function("upper", upper_transform, 30 * kSecond);
    analysis_fn =
        login.register_function("concat", concat_analysis, kMinute);
  }

  oa::IngestionFlowSpec ingestion_spec(
      const std::string& name, std::shared_ptr<oa::DataSource> source) {
    oa::IngestionFlowSpec spec;
    spec.name = name;
    spec.source = std::move(source);
    spec.poll_period = kDay;
    spec.first_poll = 0;
    spec.compute = &login;
    spec.function_id = transform_fn;
    spec.staging = &scratch;
    spec.staging_collection = "staging";
    spec.storage = &eagle;
    spec.collection = "data";
    spec.base_path = name;
    return spec;
  }

  oa::AnalysisFlowSpec analysis_spec(const std::string& name,
                                     std::vector<std::string> inputs,
                                     oa::TriggerPolicy policy) {
    oa::AnalysisFlowSpec spec;
    spec.name = name;
    spec.input_uuids = std::move(inputs);
    spec.policy = policy;
    spec.compute = &login;
    spec.function_id = analysis_fn;
    spec.staging = &scratch;
    spec.staging_collection = "staging";
    spec.storage = &eagle;
    spec.collection = "data";
    spec.base_path = name;
    spec.output_names = {"combined.txt"};
    return spec;
  }
};

TEST_F(AeroServerTest, IngestionDetectsUpdateAndStoresBothVersions) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  oa::IngestionHandles handles =
      server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  EXPECT_EQ(server.updates_detected(), 1u);
  EXPECT_EQ(server.ingestion_runs(), 1u);
  // Raw and transformed objects versioned once each.
  EXPECT_EQ(server.db().latest_version_number(handles.raw_uuid), 1);
  EXPECT_EQ(server.db().latest_version_number(handles.output_uuid), 1);
  // Payloads live on the durable endpoint, transformed correctly.
  EXPECT_EQ(eagle.get("data", "flow-a/raw", server.token()).bytes, "hello");
  EXPECT_EQ(eagle.get("data", "flow-a/transformed", server.token()).bytes,
            "HELLO");
  // Metadata checksum matches the stored payload.
  auto ver = server.db().latest_version(handles.output_uuid);
  EXPECT_EQ(ver->checksum, osprey::crypto::Sha256::hash_hex("HELLO"));
}

TEST_F(AeroServerTest, NoReingestWithoutUpstreamChange) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "same"}});
  oa::IngestionHandles handles =
      server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(5 * kDay);
  EXPECT_EQ(server.polls(), 6u);  // day 0..5
  EXPECT_EQ(server.updates_detected(), 1u);
  EXPECT_EQ(server.db().latest_version_number(handles.output_uuid), 1);
}

TEST_F(AeroServerTest, NewUpstreamContentCreatesNewVersion) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a",
      std::vector<std::pair<of::SimTime, std::string>>{
          {0, "week1"}, {7 * kDay, "week2"}});
  oa::IngestionHandles handles =
      server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(10 * kDay);
  EXPECT_EQ(server.updates_detected(), 2u);
  EXPECT_EQ(server.db().latest_version_number(handles.output_uuid), 2);
  EXPECT_EQ(eagle.get("data", "flow-a/transformed", server.token()).bytes,
            "WEEK2");
}

TEST_F(AeroServerTest, AnalysisTriggeredByIngestionOutput) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "payload"}});
  oa::IngestionHandles handles =
      server.register_ingestion(ingestion_spec("ing", source));
  std::vector<std::string> outputs = server.register_analysis(
      analysis_spec("ana", {handles.output_uuid}, oa::TriggerPolicy::kAny));
  ASSERT_EQ(outputs.size(), 1u);

  loop.run_until(kHour);
  EXPECT_EQ(server.analysis_runs(), 1u);
  EXPECT_EQ(server.db().latest_version_number(outputs[0]), 1);
  EXPECT_EQ(eagle.get("data", "ana/combined.txt", server.token()).bytes,
            "PAYLOAD|");
}

TEST_F(AeroServerTest, AllPolicyWaitsForEveryInput) {
  auto src_a = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "aa"}});
  auto src_b = std::make_shared<oa::ScriptedSource>(
      "https://feed/b", std::vector<std::pair<of::SimTime, std::string>>{
                            {2 * kDay, "bb"}});
  auto ha = server.register_ingestion(ingestion_spec("ia", src_a));
  auto hb = server.register_ingestion(ingestion_spec("ib", src_b));
  std::vector<std::string> outputs = server.register_analysis(analysis_spec(
      "agg", {ha.output_uuid, hb.output_uuid}, oa::TriggerPolicy::kAll));

  loop.run_until(kDay);  // only A has data
  EXPECT_EQ(server.analysis_runs(), 0u);
  loop.run_until(3 * kDay);  // B arrived on day 2
  EXPECT_EQ(server.analysis_runs(), 1u);
  EXPECT_EQ(eagle.get("data", "agg/combined.txt", server.token()).bytes,
            "AA|BB|");
  EXPECT_EQ(server.db().latest_version_number(outputs[0]), 1);
}

TEST_F(AeroServerTest, AnyPolicyFiresPerInputUpdate) {
  auto src_a = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "a1"}});
  auto src_b = std::make_shared<oa::ScriptedSource>(
      "https://feed/b", std::vector<std::pair<of::SimTime, std::string>>{
                            {kDay, "b1"}});
  auto ha = server.register_ingestion(ingestion_spec("ia", src_a));
  auto hb = server.register_ingestion(ingestion_spec("ib", src_b));
  server.register_analysis(analysis_spec(
      "any", {ha.output_uuid, hb.output_uuid}, oa::TriggerPolicy::kAny));
  loop.run_until(2 * kDay);
  EXPECT_EQ(server.analysis_runs(), 2u);  // once per input update
}

TEST_F(AeroServerTest, ProvenanceRecordsInputsAndOutputs) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "x"}});
  auto handles = server.register_ingestion(ingestion_spec("ing", source));
  auto outputs = server.register_analysis(
      analysis_spec("ana", {handles.output_uuid}, oa::TriggerPolicy::kAny));
  loop.run_until(kHour);

  const auto& runs = server.db().runs();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].kind, oa::FlowKind::kIngestion);
  EXPECT_EQ(runs[0].status, oa::RunStatus::kSucceeded);
  EXPECT_EQ(runs[0].outputs.size(), 2u);  // raw + transformed
  EXPECT_EQ(runs[1].kind, oa::FlowKind::kAnalysis);
  ASSERT_EQ(runs[1].inputs.size(), 1u);
  EXPECT_EQ(runs[1].inputs[0].uuid, handles.output_uuid);
  EXPECT_EQ(runs[1].outputs[0].uuid, outputs[0]);
  // The flow takes nonzero virtual time (transfers + compute).
  EXPECT_GT(runs[1].ended, runs[1].started);
}

TEST_F(AeroServerTest, FailingAnalysisRecordedAsFailedRun) {
  std::string bad_fn = login.register_function(
      "bad", [](const Value&) -> Value { throw std::runtime_error("no"); },
      kSecond);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "x"}});
  auto handles = server.register_ingestion(ingestion_spec("ing", source));
  oa::AnalysisFlowSpec spec =
      analysis_spec("bad-ana", {handles.output_uuid}, oa::TriggerPolicy::kAny);
  spec.function_id = bad_fn;
  auto outputs = server.register_analysis(std::move(spec));
  loop.run_until(kHour);
  EXPECT_EQ(server.failed_runs(), 1u);
  EXPECT_EQ(server.db().latest_version_number(outputs[0]), 0);
}

TEST_F(AeroServerTest, RegistrationValidation) {
  oa::IngestionFlowSpec bad;
  bad.name = "bad";
  EXPECT_THROW(server.register_ingestion(std::move(bad)),
               ou::InvalidArgument);

  oa::AnalysisFlowSpec ana;
  ana.name = "ana";
  ana.input_uuids = {"not-a-registered-uuid"};
  ana.compute = &login;
  ana.function_id = analysis_fn;
  ana.staging = &scratch;
  ana.staging_collection = "staging";
  ana.storage = &eagle;
  ana.collection = "data";
  ana.output_names = {"x"};
  EXPECT_THROW(server.register_analysis(std::move(ana)),
               ou::InvalidArgument);
}

TEST_F(AeroServerTest, MetadataNeverStoresPayloads) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "SECRET-PAYLOAD"}});
  auto handles = server.register_ingestion(ingestion_spec("ing", source));
  loop.run_until(kHour);
  // The metadata DB holds checksums/paths, never bytes.
  auto ver = server.db().latest_version(handles.raw_uuid);
  ASSERT_TRUE(ver.has_value());
  EXPECT_EQ(ver->checksum.size(), 64u);
  EXPECT_EQ(ver->checksum.find("SECRET"), std::string::npos);
  EXPECT_EQ(ver->path.find("SECRET"), std::string::npos);
  EXPECT_EQ(ver->size_bytes, 14u);
}

// ---------------------------------------------------------------------------
// Graceful-degradation contract: a ServedEstimate's reason is empty iff
// the estimate is fresh — in every reachable serving state.
// ---------------------------------------------------------------------------

namespace {

void expect_reason_iff_stale(const oa::AeroServer::ServedEstimate& est,
                             const std::string& context) {
  EXPECT_EQ(est.stale, !est.reason.empty())
      << context << ": reason must be empty iff fresh (stale=" << est.stale
      << " reason='" << est.reason << "')";
}

}  // namespace

TEST_F(AeroServerTest, ServeLatestNeverPublishedIsStaleWithReason) {
  // Regression: an object whose producer failed before ever publishing
  // used to report stale=true with an empty reason, letting a consumer
  // (or cache) mistake it for fresh under the "reason iff stale" rule.
  std::string uuid = server.db().register_object("orphan", "doomed-flow");
  oa::AeroServer::ServedEstimate est = server.serve_latest(uuid);
  EXPECT_FALSE(est.version.has_value());
  EXPECT_TRUE(est.stale);
  EXPECT_EQ(est.reason, "never-published");
  expect_reason_iff_stale(est, "never-published");
  EXPECT_EQ(server.stale_serves(), 1u);
}

TEST_F(AeroServerTest, ServeLatestReasonEmptyIffFreshAcrossStates) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));

  // Before the first poll completes: never published -> stale + reason.
  expect_reason_iff_stale(server.serve_latest(handles.output_uuid),
                          "pre-publish");
  loop.run_until(kHour);

  // Published and healthy: fresh, no reason.
  oa::AeroServer::ServedEstimate fresh = server.serve_latest(handles.output_uuid);
  ASSERT_TRUE(fresh.version.has_value());
  EXPECT_FALSE(fresh.stale);
  expect_reason_iff_stale(fresh, "fresh");
}

TEST_F(AeroServerTest, UpdateListenersFireOnVersionsAndDegradationFlips) {
  std::vector<std::string> notified;
  std::uint64_t id = server.add_update_listener(
      [&](const std::string& uuid) { notified.push_back(uuid); });

  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  // Both the raw and transformed objects gained a version.
  EXPECT_EQ(std::count(notified.begin(), notified.end(), handles.raw_uuid), 1);
  EXPECT_EQ(std::count(notified.begin(), notified.end(), handles.output_uuid),
            1);

  // After removal the listener must stay silent.
  server.remove_update_listener(id);
  std::size_t seen = notified.size();
  server.db().add_version(handles.raw_uuid, std::string(64, 'a'), 1,
                          loop.now(), "eagle", "data", "flow-a/raw");
  EXPECT_EQ(notified.size(), seen);
}

// ---------------------------------------------------------------------------
// The AERO wrapper's shape: step names and order per flow kind, and what
// register-metadata publishes for every output.
// ---------------------------------------------------------------------------

TEST_F(AeroServerTest, RunShapeAndPublishedVersionsPerKind) {
  obs::TraceRecorder recorder;
  server.set_tracer(&recorder);
  flows.set_tracer(&recorder);
  std::string split_fn =
      login.register_function("split", split_analysis, kMinute);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "first"}, {kDay, "second"}});
  auto handles = server.register_ingestion(ingestion_spec("ing", source));
  oa::AnalysisFlowSpec spec =
      analysis_spec("ana", {handles.output_uuid}, oa::TriggerPolicy::kAny);
  spec.function_id = split_fn;
  spec.output_names = {"head.txt", "tail.txt"};
  std::vector<std::string> outputs = server.register_analysis(std::move(spec));
  ASSERT_EQ(outputs.size(), 2u);

  // Each day's run publishes version `day`; only the latest bytes stay
  // on the endpoint, so every version is checked while it is current.
  for (int day = 1; day <= 2; ++day) {
    loop.run_until((day - 1) * kDay + kHour);
    for (std::size_t k = 0; k < outputs.size(); ++k) {
      const std::string name = k == 0 ? "head.txt" : "tail.txt";
      auto ver = server.db().latest_version(outputs[k]);
      ASSERT_TRUE(ver.has_value()) << name;
      EXPECT_EQ(ver->version, day) << name;
      EXPECT_EQ(ver->path, "ana/" + name);
      EXPECT_EQ(ver->endpoint, "eagle");
      EXPECT_EQ(ver->collection, "data");
      const std::string stored =
          eagle.get("data", ver->path, server.token()).bytes;
      EXPECT_EQ(ver->checksum, osprey::crypto::Sha256::hash_hex(stored))
          << name;
      EXPECT_EQ(ver->size_bytes, stored.size()) << name;
    }
    auto out = server.db().latest_version(handles.output_uuid);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->path, "ing/transformed");
    EXPECT_EQ(out->checksum,
              osprey::crypto::Sha256::hash_hex(
                  eagle.get("data", out->path, server.token()).bytes));
  }
  EXPECT_EQ(eagle.get("data", "ana/head.txt", server.token()).bytes, "SEC");
  EXPECT_EQ(eagle.get("data", "ana/tail.txt", server.token()).bytes, "OND");

  const std::vector<std::string> ingest = {"upload-raw", "transform",
                                           "stage-out", "register-metadata"};
  const std::vector<std::string> analyze = {"stage-in", "execute",
                                            "stage-out", "register-metadata"};
  std::vector<std::string> twice_ingest = ingest;
  twice_ingest.insert(twice_ingest.end(), ingest.begin(), ingest.end());
  std::vector<std::string> twice_analyze = analyze;
  twice_analyze.insert(twice_analyze.end(), analyze.begin(), analyze.end());
  EXPECT_EQ(step_names(recorder, "ing"), twice_ingest);
  EXPECT_EQ(step_names(recorder, "ana"), twice_analyze);
  EXPECT_EQ(server.failed_runs(), 0u);
}

// ---------------------------------------------------------------------------
// A user function's malformed result fails its run, never the event loop.
// ---------------------------------------------------------------------------

TEST_F(AeroServerTest, NonStringTransformOutputFailsTheRunNotTheLoop) {
  obs::TraceRecorder recorder;
  server.set_tracer(&recorder);
  flows.set_tracer(&recorder);
  std::string numeric_fn = login.register_function(
      "numeric",
      [](const Value&) {
        ValueObject out;
        out["output"] = Value(std::int64_t{42});
        return Value(std::move(out));
      },
      kSecond);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "x"}});
  oa::IngestionFlowSpec spec = ingestion_spec("ing", source);
  spec.function_id = numeric_fn;
  auto handles = server.register_ingestion(std::move(spec));

  EXPECT_NO_THROW(loop.run_until(kHour));
  EXPECT_EQ(server.failed_runs(), 1u);
  EXPECT_EQ(server.db().latest_version_number(handles.output_uuid), 0);
  obs::SpanRecord step = span_named(recorder, "step:transform");
  EXPECT_FALSE(step.ok);
  EXPECT_EQ(step.detail, "transformation output is not a string");
  // The loop keeps serving: the next polls still happen.
  EXPECT_NO_THROW(loop.run_until(2 * kDay));
  EXPECT_EQ(server.polls(), 3u);
}

TEST_F(AeroServerTest, NonStringAnalysisOutputFailsTheRunNotTheLoop) {
  obs::TraceRecorder recorder;
  server.set_tracer(&recorder);
  flows.set_tracer(&recorder);
  std::string numeric_fn = login.register_function(
      "numeric",
      [](const Value&) {
        ValueObject outputs;
        outputs["combined.txt"] = Value(std::int64_t{7});
        ValueObject out;
        out["outputs"] = Value(std::move(outputs));
        return Value(std::move(out));
      },
      kSecond);
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "x"}});
  auto handles = server.register_ingestion(ingestion_spec("ing", source));
  oa::AnalysisFlowSpec spec =
      analysis_spec("ana", {handles.output_uuid}, oa::TriggerPolicy::kAny);
  spec.function_id = numeric_fn;
  auto outputs = server.register_analysis(std::move(spec));

  EXPECT_NO_THROW(loop.run_until(kHour));
  EXPECT_EQ(server.failed_runs(), 1u);
  EXPECT_EQ(server.db().latest_version_number(outputs[0]), 0);
  obs::SpanRecord step = span_named(recorder, "step:execute");
  EXPECT_FALSE(step.ok);
  EXPECT_EQ(step.detail, "analysis output 'combined.txt' is not a string");
  EXPECT_NO_THROW(loop.run_until(2 * kDay));
  EXPECT_EQ(server.polls(), 3u);
}

// ---------------------------------------------------------------------------
// Unchanged polls with shared payload buffers: the same buffer or equal
// bytes never re-run a flow, changed bytes run it exactly once, and a
// queued payload runs with the bytes it was polled with.
// ---------------------------------------------------------------------------

namespace {

/// Upstream the test publishes to. With `fresh_copies`, every fetch
/// returns a new buffer holding the current bytes.
class PublishedSource final : public oa::DataSource {
 public:
  std::string url() const override { return "https://feed/published"; }
  const std::shared_ptr<const std::string>& fetch(of::SimTime) override {
    if (current == nullptr || !fresh_copies) return current;
    copy = std::make_shared<const std::string>(*current);
    return copy;
  }
  void publish(const std::string& bytes) {
    current = std::make_shared<const std::string>(bytes);
  }

  std::shared_ptr<const std::string> current;
  std::shared_ptr<const std::string> copy;  // the last fresh copy
  bool fresh_copies = false;
};

std::vector<std::string> runs_of(const oa::AeroServer& server,
                                 const std::string& flow) {
  std::vector<std::string> runs;
  for (const oa::RunRecord& run : server.db().runs()) {
    if (run.flow_name != flow) continue;
    runs.push_back(run.trigger + " | " +
                   (run.status == oa::RunStatus::kSucceeded ? "ok" : "failed"));
  }
  return runs;
}

}  // namespace

TEST_F(AeroServerTest, UnchangedPollSkipsWorkForSameBufferOrEqualBytes) {
  const obs::Counter* updates =
      loop.metrics().find_counter("aero_updates_detected_total");
  ASSERT_NE(updates, nullptr);
  auto source = std::make_shared<PublishedSource>();
  source->publish("week1");
  oa::IngestionFlowSpec spec = ingestion_spec("flow", source);
  spec.poll_period = kHour;
  oa::IngestionHandles handles = server.register_ingestion(std::move(spec));

  // The same buffer on every poll (0h..5h): one update, one run.
  loop.run_until(5 * kHour + kMinute);
  EXPECT_EQ(server.polls(), 6u);
  EXPECT_EQ(updates->value(), 1u);
  EXPECT_EQ(server.ingestion_runs(), 1u);

  // A fresh buffer with equal bytes on every poll (6h..10h): unchanged.
  source->fresh_copies = true;
  loop.run_until(10 * kHour + kMinute);
  EXPECT_EQ(server.polls(), 11u);
  EXPECT_EQ(updates->value(), 1u);
  EXPECT_EQ(server.ingestion_runs(), 1u);

  // Changed bytes (11h): exactly one more update and one more run.
  source->fresh_copies = false;
  source->publish("week2");
  loop.run_until(15 * kHour + kMinute);
  EXPECT_EQ(updates->value(), 2u);
  EXPECT_EQ(server.ingestion_runs(), 2u);
  EXPECT_EQ(server.db().latest_version_number(handles.output_uuid), 2);
  EXPECT_EQ(eagle.get("data", "flow/transformed", server.token()).bytes,
            "WEEK2");

  // A payload queued behind an open breaker runs, as the probe, with
  // the bytes it was polled with, even after upstream moved on.
  int calls = 0;
  std::string flaky_fn = login.register_function(
      "flaky",
      [&calls](const Value& args) {
        if (++calls == 1) throw std::runtime_error("transient");
        return upper_transform(args);
      },
      30 * kSecond);
  auto queued_source = std::make_shared<PublishedSource>();
  queued_source->publish("first");
  oa::IngestionFlowSpec queued = ingestion_spec("queued", queued_source);
  queued.function_id = flaky_fn;
  queued.poll_period = 4 * kHour;
  queued.first_poll = 16 * kHour;
  queued.breaker.failure_threshold = 1;
  queued.breaker.open_timeout = 6 * kHour;
  server.register_ingestion(std::move(queued));

  loop.run_until(17 * kHour);  // the 16h poll's run failed: breaker open
  queued_source->publish("second");
  loop.run_until(21 * kHour);  // the 20h poll queued "second"
  EXPECT_EQ(server.deferred_triggers(), 1u);
  queued_source->publish("third");
  loop.run_until(23 * kHour);  // the probe (~22h) ran
  EXPECT_EQ(runs_of(server, "queued"),
            (std::vector<std::string>{"poll:https://feed/published | failed",
                                      "probe:https://feed/published | ok"}));
  EXPECT_EQ(eagle.get("data", "queued/raw", server.token()).bytes, "second");
  EXPECT_EQ(eagle.get("data", "queued/transformed", server.token()).bytes,
            "SECOND");
  EXPECT_EQ(updates->value(), 4u);  // week1, week2, first, second
}

// The DataSource contract: fetch hands back the source's own buffer by
// reference, valid until the next fetch; a poll that sees the same
// buffer or equal bytes runs no flow and publishes no version.
TEST_F(AeroServerTest, FetchReferenceContractAndUnchangedPolls) {
  oa::ScriptedSource scripted("https://feed/scripted",
                              {{10, "v1"}, {20, "v2"}});
  EXPECT_EQ(scripted.fetch(5), nullptr);
  const std::shared_ptr<const std::string>& v1 = scripted.fetch(10);
  ASSERT_NE(v1, nullptr);
  const long held = v1.use_count();
  EXPECT_EQ(&scripted.fetch(15), &v1);  // the same stored element
  EXPECT_EQ(v1.use_count(), held);      // no copy was taken
  EXPECT_EQ(*v1, "v1");
  EXPECT_EQ(*scripted.fetch(25), "v2");

  // A fresh copy lives in the source until its next fetch.
  auto source = std::make_shared<PublishedSource>();
  source->publish("week1");
  source->fresh_copies = true;
  const std::shared_ptr<const std::string>& copy = source->fetch(0);
  const std::string* bytes = copy.get();
  EXPECT_EQ(*bytes, "week1");
  EXPECT_NE(bytes, source->current.get());

  oa::IngestionFlowSpec spec = ingestion_spec("contract", source);
  spec.poll_period = kHour;
  oa::IngestionHandles handles = server.register_ingestion(std::move(spec));
  loop.run_until(kHour - kSecond);  // the 0h poll ran the flow
  ASSERT_EQ(server.ingestion_runs(), 1u);
  ASSERT_EQ(server.db().latest_version_number(handles.output_uuid), 1);
  const std::size_t versions =
      server.db().object(handles.output_uuid).versions.size();
  const std::size_t raw_versions =
      server.db().object(handles.raw_uuid).versions.size();
  for (bool fresh : {true, false}) {
    source->fresh_copies = fresh;
    loop.run_until(loop.now() + 4 * kHour);
    EXPECT_EQ(server.ingestion_runs(), 1u);
    EXPECT_EQ(server.db().object(handles.output_uuid).versions.size(),
              versions);
    EXPECT_EQ(server.db().object(handles.raw_uuid).versions.size(),
              raw_versions);
  }
  EXPECT_EQ(server.polls(), 9u);  // 0h..8h
}
