#include "core/platform.hpp"

#include <gtest/gtest.h>

#include "core/harness.hpp"
#include "core/metarvm_gsa.hpp"
#include "core/wastewater_source.hpp"
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
  ASSERT_TRUE(day10.has_value());
  EXPECT_EQ(*day10, *day13);   // same weekly publication
  EXPECT_NE(*day13, *day14);   // new publication on day 14
}
