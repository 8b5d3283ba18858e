#include "core/platform.hpp"

#include <gtest/gtest.h>

#include "aero/source.hpp"
#include "core/harness.hpp"
#include "core/metarvm_gsa.hpp"
#include "core/wastewater_source.hpp"
#include "fabric/fault.hpp"
#include "util/error.hpp"

namespace oc = osprey::core;
namespace ou = osprey::util;
using ou::Value;
using ou::ValueObject;

TEST(Platform, EndpointConstructionAndLookup) {
  oc::OspreyPlatform platform;
  platform.add_storage_endpoint("eagle");
  platform.add_scheduler("pbs", 4);
  platform.add_login_endpoint("login", 2);
  platform.add_batch_endpoint("batch", platform.scheduler("pbs"));

  EXPECT_EQ(platform.storage_endpoint("eagle").name(), "eagle");
  EXPECT_EQ(platform.compute_endpoint("login").kind(),
            osprey::fabric::EndpointKind::kLoginNode);
  EXPECT_EQ(platform.compute_endpoint("batch").kind(),
            osprey::fabric::EndpointKind::kBatch);
  EXPECT_THROW(platform.storage_endpoint("nope"), ou::NotFound);
  EXPECT_THROW(platform.compute_endpoint("nope"), ou::NotFound);
  EXPECT_THROW(platform.scheduler("nope"), ou::NotFound);
  EXPECT_THROW(platform.add_storage_endpoint("eagle"), ou::InvalidArgument);
}

TEST(Platform, CompletedCountIsPerEndpoint) {
  // Both endpoints report into the platform's one registry; each must
  // still count only its own tasks.
  oc::OspreyPlatform platform;
  platform.add_scheduler("pbs", 4);
  osprey::fabric::ComputeEndpoint& login =
      platform.add_login_endpoint("login", 2);
  osprey::fabric::ComputeEndpoint& batch =
      platform.add_batch_endpoint("batch", platform.scheduler("pbs"));
  const std::string token = platform.issue_token("user");
  auto identity = [](const Value& args) { return args; };
  const std::string on_login =
      login.register_function("id", identity, ou::kMinute);
  const std::string on_batch =
      batch.register_function("id", identity, ou::kMinute);
  for (int i = 0; i < 2; ++i) login.execute(on_login, Value(i), token, {});
  for (int i = 0; i < 3; ++i) batch.execute(on_batch, Value(i), token, {});
  platform.run_days(1);

  EXPECT_EQ(login.completed_count(), 2u);
  EXPECT_EQ(batch.completed_count(), 3u);
}

namespace {

/// Storage endpoints and an ingestion on the platform's "login" endpoint
/// whose first poll is at `first_poll`; until then its output is
/// unpublished.
osprey::aero::IngestionHandles register_feed(
    oc::OspreyPlatform& platform, osprey::fabric::SimTime first_poll) {
  osprey::aero::AeroServer& server = platform.aero();
  osprey::fabric::StorageEndpoint& eagle =
      platform.add_storage_endpoint("eagle");
  osprey::fabric::StorageEndpoint& scratch =
      platform.add_storage_endpoint("scratch");
  eagle.create_collection("data", server.token());
  scratch.create_collection("staging", server.token());
  osprey::aero::IngestionFlowSpec spec;
  spec.name = "feed";
  spec.source = std::make_shared<osprey::aero::ScriptedSource>(
      "https://feed",
      std::vector<std::pair<osprey::fabric::SimTime, std::string>>{
          {0, "payload"}});
  spec.first_poll = first_poll;
  spec.compute = &platform.compute_endpoint("login");
  spec.function_id = spec.compute->register_function(
      "id",
      [](const Value& args) {
        ValueObject out;
        out["output"] = args.at("input");
        return Value(std::move(out));
      },
      ou::kMinute);
  spec.staging = &scratch;
  spec.staging_collection = "staging";
  spec.storage = &eagle;
  spec.collection = "data";
  spec.base_path = "feed";
  return server.register_ingestion(std::move(spec));
}

}  // namespace

TEST(Platform, DetachedPlanGetsNoAeroIncidents) {
  // A stale serve is a degradation incident, recorded into the attached
  // plan's log; once the plan is detached it must not be written to.
  oc::OspreyPlatform platform;
  platform.add_login_endpoint("login", 2);
  const std::string uuid = register_feed(platform, ou::kDay).output_uuid;
  osprey::fabric::FaultPlan plan(1);
  platform.install_fault_plan(&plan);
  EXPECT_TRUE(platform.aero().serve_latest(uuid).stale);
  ASSERT_EQ(plan.log().size(), 1u);

  platform.install_fault_plan(nullptr);
  EXPECT_TRUE(platform.aero().serve_latest(uuid).stale);
  EXPECT_EQ(plan.log().size(), 1u);
}

TEST(Platform, InstalledPlanReachesLateEndpointsAndDetachesEverywhere) {
  namespace of = osprey::fabric;
  oc::OspreyPlatform platform;
  of::FaultPlan plan(3);
  plan.script_window(of::FaultKind::kEndpointOutage, "login", 0, ou::kDay);
  platform.install_fault_plan(&plan);

  // Added after the install, the endpoint still sees the outage.
  of::ComputeEndpoint& login = platform.add_login_endpoint("login", 2);
  const std::string token = platform.issue_token("user");
  const std::string fn = login.register_function(
      "one", [](const Value&) { return Value(1); }, ou::kMinute);
  std::string error;
  login.execute(fn, Value(ValueObject{}), token,
                [&](const Value&, const of::ComputeTaskRecord& rec) {
                  error = rec.error;
                });
  platform.run_until(ou::kHour);
  EXPECT_NE(error.find("unreachable"), std::string::npos) << error;
  EXPECT_EQ(plan.injected(of::FaultKind::kEndpointOutage), 1u);

  // Every kind now fires on every operation at every site, but the plan
  // is detached: the whole stack runs clean and the plan stays untouched.
  for (int k = 0; k < of::kNumFaultKinds; ++k) {
    plan.set_rate(static_cast<of::FaultKind>(k), 1.0);
  }
  plan.script_window(of::FaultKind::kEndpointOutage, "", 0, 10 * ou::kDay);
  plan.script_window(of::FaultKind::kSourceOutage, "", 0, 10 * ou::kDay);
  platform.install_fault_plan(nullptr);
  const std::size_t incidents = plan.log().size();
  const std::uint64_t injected = plan.injected_total();

  platform.add_scheduler("pbs", 1);
  of::ComputeEndpoint& batch =
      platform.add_batch_endpoint("batch", platform.scheduler("pbs"));
  const std::string on_batch = batch.register_function(
      "one", [](const Value&) { return Value(1); }, ou::kMinute);
  batch.execute(on_batch, Value(ValueObject{}), token, {});
  const std::string uuid =
      register_feed(platform, platform.loop().now()).output_uuid;
  platform.run_days(1);

  EXPECT_EQ(batch.completed_count(), 1u);
  EXPECT_EQ(platform.aero().db().latest_version_number(uuid), 1);
  EXPECT_EQ(platform.aero().failed_runs(), 0u);
  EXPECT_EQ(plan.log().size(), incidents);
  EXPECT_EQ(plan.injected_total(), injected);
}

TEST(Platform, RunDaysAdvancesClock) {
  oc::OspreyPlatform platform;
  platform.run_days(3);
  EXPECT_EQ(platform.loop().now(), 3 * ou::kDay);
  EXPECT_THROW(platform.run_days(-1), ou::InvalidArgument);
}

TEST(Platform, TokensWork) {
  oc::OspreyPlatform platform;
  std::string token = platform.issue_token("user");
  EXPECT_EQ(platform.auth().identity_of(token), "user");
}

TEST(Harness, RegistryInvokeAndProvenance) {
  oc::HarnessRegistry registry;
  registry.add("estimate", oc::Language::kJulia, "R(t) estimation",
               [](const Value& args) {
                 ValueObject out;
                 out["doubled"] = Value(args.at("x").as_double() * 2);
                 return Value(std::move(out));
               });
  EXPECT_TRUE(registry.has("estimate"));
  ValueObject args;
  args["x"] = Value(5.0);
  Value result = registry.invoke("estimate", Value(args));
  EXPECT_DOUBLE_EQ(result.at("doubled").as_double(), 10.0);
  EXPECT_EQ(registry.info("estimate").invocations, 1u);
  EXPECT_EQ(registry.invocations_by(oc::Language::kJulia), 1u);
  EXPECT_EQ(registry.invocations_by(oc::Language::kR), 0u);
}

TEST(Harness, ComposedHarnessesCountBoth) {
  // Python harness calling a Julia harness: the paper's chain.
  oc::HarnessRegistry registry;
  registry.add("inner", oc::Language::kJulia, "",
               [](const Value&) { return Value(1); });
  registry.add("outer", oc::Language::kPython, "",
               [&registry](const Value& args) {
                 return registry.invoke("inner", args);
               });
  registry.invoke("outer", Value());
  EXPECT_EQ(registry.invocations_by(oc::Language::kPython), 1u);
  EXPECT_EQ(registry.invocations_by(oc::Language::kJulia), 1u);
}

TEST(Harness, ErrorsAndDuplicates) {
  oc::HarnessRegistry registry;
  registry.add("h", oc::Language::kR, "", [](const Value&) { return Value(); });
  EXPECT_THROW(registry.add("h", oc::Language::kR, "",
                            [](const Value&) { return Value(); }),
               ou::InvalidArgument);
  EXPECT_THROW(registry.invoke("missing", Value()), ou::NotFound);
  EXPECT_THROW(registry.info("missing"), ou::NotFound);
  EXPECT_EQ(registry.list().size(), 1u);
}

TEST(Harness, AsComputeFnRoutesThroughRegistry) {
  oc::HarnessRegistry registry;
  registry.add("fn", oc::Language::kCpp, "",
               [](const Value&) { return Value(7); });
  auto fn = registry.as_compute_fn("fn");
  EXPECT_EQ(fn(Value()).as_int(), 7);
  EXPECT_EQ(registry.info("fn").invocations, 1u);
  EXPECT_THROW(registry.as_compute_fn("nope"), ou::InvalidArgument);
}

TEST(Table1, RangesMatchPaper) {
  auto ranges = oc::table1_ranges();
  ASSERT_EQ(ranges.size(), 5u);
  EXPECT_EQ(ranges[0].name, "ts");
  EXPECT_DOUBLE_EQ(ranges[0].lo, 0.1);
  EXPECT_DOUBLE_EQ(ranges[0].hi, 0.9);
  EXPECT_EQ(ranges[1].name, "tv");
  EXPECT_DOUBLE_EQ(ranges[1].lo, 0.01);
  EXPECT_DOUBLE_EQ(ranges[1].hi, 0.5);
  EXPECT_EQ(ranges[2].name, "pea");
  EXPECT_DOUBLE_EQ(ranges[2].lo, 0.4);
  EXPECT_DOUBLE_EQ(ranges[2].hi, 0.9);
  EXPECT_EQ(ranges[3].name, "psh");
  EXPECT_DOUBLE_EQ(ranges[3].lo, 0.1);
  EXPECT_DOUBLE_EQ(ranges[3].hi, 0.4);
  EXPECT_EQ(ranges[4].name, "phd");
  EXPECT_DOUBLE_EQ(ranges[4].lo, 0.0);
  EXPECT_DOUBLE_EQ(ranges[4].hi, 0.3);
  EXPECT_EQ(oc::table1_descriptions().size(), 5u);
}

TEST(Table1, ParamsFromPointOverridesOnlyTheFive) {
  osprey::num::Vector x{0.5, 0.25, 0.6, 0.3, 0.15};
  osprey::epi::MetaRvmParams p = oc::params_from_point(x);
  EXPECT_DOUBLE_EQ(p.ts, 0.5);
  EXPECT_DOUBLE_EQ(p.tv, 0.25);
  EXPECT_DOUBLE_EQ(p.pea, 0.6);
  EXPECT_DOUBLE_EQ(p.psh, 0.3);
  EXPECT_DOUBLE_EQ(p.phd, 0.15);
  osprey::epi::MetaRvmParams nominal = osprey::epi::MetaRvmParams::nominal();
  EXPECT_DOUBLE_EQ(p.de, nominal.de);
  EXPECT_DOUBLE_EQ(p.dh, nominal.dh);
  EXPECT_THROW(oc::params_from_point({0.5}), ou::InvalidArgument);
}

TEST(Table1, TaskModelProtocol) {
  auto model = std::make_shared<const osprey::epi::MetaRvm>(
      osprey::epi::MetaRvmConfig::single_group(20000, 10, 60));
  ValueObject payload;
  payload["x"] = Value::from_doubles({0.5, 0.25, 0.6, 0.3, 0.15});
  payload["replicate"] = Value(std::int64_t{2});
  Value r1 = oc::metarvm_task_model(model, 11, Value(payload));
  Value r2 = oc::metarvm_task_model(model, 11, Value(payload));
  EXPECT_TRUE(r1.contains("y"));
  EXPECT_DOUBLE_EQ(r1.at("y").as_double(), r2.at("y").as_double());
  payload["replicate"] = Value(std::int64_t{3});
  Value r3 = oc::metarvm_task_model(model, 11, Value(payload));
  EXPECT_NE(r1.at("y").as_double(), r3.at("y").as_double());
}

TEST(WastewaterSource, AdaptsGeneratorAsDataSource) {
  auto gen = std::make_shared<osprey::epi::WastewaterGenerator>(
      osprey::epi::chicago_plants()[0], osprey::epi::chicago_truths()[0],
      osprey::epi::WastewaterConfig{}, 1);
  oc::WastewaterSource source(gen);
  EXPECT_NE(source.url().find("O-Brien"), std::string::npos);
  auto day10 = source.fetch(10 * ou::kDay);
  auto day13 = source.fetch(13 * ou::kDay);
  auto day14 = source.fetch(14 * ou::kDay);
  ASSERT_TRUE(day10 != nullptr);
  EXPECT_EQ(*day10, *day13);   // same weekly publication
  EXPECT_NE(*day13, *day14);   // new publication on day 14
}
