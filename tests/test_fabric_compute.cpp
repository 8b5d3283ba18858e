#include "fabric/compute.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace of = osprey::fabric;
namespace ou = osprey::util;
using ou::kMinute;
using ou::kSecond;
using ou::Value;

class ComputeTest : public ::testing::Test {
 protected:
  of::EventLoop loop;
  of::AuthService auth;
  std::string token = auth.issue_full_token("user");

  static Value doubler(const Value& args) {
    ou::ValueObject out;
    out["y"] = Value(args.at("x").as_double() * 2.0);
    return Value(std::move(out));
  }
};

TEST_F(ComputeTest, LoginNodeExecutesWithDeclaredCost) {
  of::ComputeEndpoint login("login", loop, auth, 2);
  std::string fn = login.register_function("double", doubler, 30 * kSecond);
  EXPECT_TRUE(login.has_function(fn));
  double result = 0.0;
  ou::ValueObject args;
  args["x"] = Value(21.0);
  login.execute(fn, Value(args), token,
                [&](const Value& r, const of::ComputeTaskRecord& rec) {
                  result = r.at("y").as_double();
                  EXPECT_EQ(rec.status, of::ComputeTaskStatus::kSucceeded);
                  EXPECT_EQ(rec.completed - rec.started, 30 * kSecond);
                });
  loop.run_all();
  EXPECT_DOUBLE_EQ(result, 42.0);
}

TEST_F(ComputeTest, LoginNodeSlotsSerializeWork) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  std::string fn =
      login.register_function("slow", [](const Value&) { return Value(1); },
                              kMinute);
  std::vector<of::SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    ou::ValueObject args;
    login.execute(fn, Value(args), token,
                  [&](const Value&, const of::ComputeTaskRecord& rec) {
                    completions.push_back(rec.completed);
                  });
  }
  loop.run_all();
  ASSERT_EQ(completions.size(), 3u);
  // One slot: completions 1, 2, 3 minutes.
  EXPECT_EQ(completions[0], kMinute);
  EXPECT_EQ(completions[1], 2 * kMinute);
  EXPECT_EQ(completions[2], 3 * kMinute);
}

TEST_F(ComputeTest, TwoSlotsRunConcurrently) {
  of::ComputeEndpoint login("login", loop, auth, 2);
  std::string fn =
      login.register_function("slow", [](const Value&) { return Value(1); },
                              kMinute);
  std::vector<of::SimTime> completions;
  for (int i = 0; i < 2; ++i) {
    login.execute(fn, Value(ou::ValueObject{}), token,
                  [&](const Value&, const of::ComputeTaskRecord& rec) {
                    completions.push_back(rec.completed);
                  });
  }
  loop.run_all();
  EXPECT_EQ(completions[0], kMinute);
  EXPECT_EQ(completions[1], kMinute);
}

TEST_F(ComputeTest, BatchEndpointPaysQueueWait) {
  of::BatchScheduler pbs(loop, 1);
  of::ComputeEndpoint compute("compute", loop, auth, pbs);
  std::string fn = compute.register_function(
      "analysis", [](const Value&) { return Value(0); }, 20 * kMinute);
  std::vector<of::SimTime> starts;
  for (int i = 0; i < 2; ++i) {
    compute.execute(fn, Value(ou::ValueObject{}), token,
                    [&](const Value&, const of::ComputeTaskRecord& rec) {
                      starts.push_back(rec.started);
                    });
  }
  loop.run_all();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[1] - starts[0], 20 * kMinute);  // one node: serialized
  EXPECT_EQ(pbs.jobs().size(), 2u);
}

TEST_F(ComputeTest, InputDependentCost) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  std::string fn = login.register_function(
      "sized", [](const Value&) { return Value(0); },
      of::CostFn([](const Value& args) {
        return args.at("n").as_int() * kSecond;
      }));
  of::SimTime completed = -1;
  ou::ValueObject args;
  args["n"] = Value(17);
  login.execute(fn, Value(args), token,
                [&](const Value&, const of::ComputeTaskRecord& rec) {
                  completed = rec.completed;
                });
  loop.run_all();
  EXPECT_EQ(completed, 17 * kSecond);
}

TEST_F(ComputeTest, FunctionExceptionBecomesFailedTask) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  std::string fn = login.register_function(
      "bad",
      [](const Value&) -> Value { throw std::runtime_error("kaboom"); },
      kSecond);
  bool saw_failure = false;
  login.execute(fn, Value(ou::ValueObject{}), token,
                [&](const Value& result, const of::ComputeTaskRecord& rec) {
                  saw_failure = true;
                  EXPECT_EQ(rec.status, of::ComputeTaskStatus::kFailed);
                  EXPECT_NE(rec.error.find("kaboom"), std::string::npos);
                  EXPECT_TRUE(result.is_null());
                });
  loop.run_all();
  EXPECT_TRUE(saw_failure);
}

TEST_F(ComputeTest, UnknownFunctionAndScopeChecks) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  EXPECT_THROW(login.execute("fn-none", Value(), token, nullptr),
               ou::NotFound);
  std::string fn = login.register_function(
      "f", [](const Value&) { return Value(0); }, kSecond);
  std::string weak = auth.issue_token("weak", {of::scopes::kStorageRead});
  EXPECT_THROW(login.execute(fn, Value(), weak, nullptr), ou::AuthError);
}

TEST_F(ComputeTest, TaskRecordsAccumulate) {
  of::ComputeEndpoint login("login", loop, auth, 4);
  std::string fn = login.register_function(
      "f", [](const Value&) { return Value(0); }, kSecond);
  std::vector<of::ComputeTaskRecord> done;
  for (int i = 0; i < 5; ++i) {
    login.execute(fn, Value(ou::ValueObject{}), token,
                  [&](const Value&, const of::ComputeTaskRecord& rec) {
                    done.push_back(rec);
                  });
  }
  EXPECT_EQ(login.in_flight(), 5u);
  loop.run_all();
  ASSERT_EQ(done.size(), 5u);
  EXPECT_EQ(login.completed_count(), 5u);
  EXPECT_EQ(login.in_flight(), 0u);
  EXPECT_EQ(done[0].id, 0u);
  EXPECT_EQ(done[0].function_name, "f");
}
