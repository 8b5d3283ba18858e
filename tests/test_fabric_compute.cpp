#include "fabric/compute.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "fabric/fault.hpp"
#include "util/error.hpp"

namespace of = osprey::fabric;
namespace ou = osprey::util;
using ou::kHour;
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

// --- offloaded functions: prepare / work / commit -------------------------

namespace {

/// A body with real work whose result depends on its arguments.
Value churn(const Value& args) {
  std::uint64_t x = static_cast<std::uint64_t>(args.at("n").as_int());
  for (int i = 0; i < 200000; ++i) x = x * 6364136223846793005ull + 1;
  ou::ValueObject out;
  out["n"] = args.at("n");
  out["x"] = Value(static_cast<std::int64_t>(x >> 1));
  return Value(std::move(out));
}

/// The same body as an offloaded function: all of it is work.
of::OffloadedBody churn_offloaded(const Value& args) {
  return {[args] { return churn(args); }, nullptr};
}

struct Landed {
  of::ComputeTaskId id;
  of::SimTime started;
  of::SimTime completed;
  of::ComputeTaskStatus status;
  Value result;
};

/// Four tasks, submitted a minute apart, on a 4-node batch endpoint.
std::vector<Landed> run_four_on_batch(bool offloaded) {
  of::EventLoop loop;
  of::AuthService auth;
  const std::string token = auth.issue_full_token("user");
  of::BatchScheduler pbs(loop, 4);
  of::ComputeEndpoint compute("compute", loop, auth, pbs);
  const std::string fn =
      offloaded ? compute.register_offloaded("churn", churn_offloaded,
                                             20 * kMinute)
                : compute.register_function("churn", churn, 20 * kMinute);
  std::vector<Landed> landed;
  for (int i = 0; i < 4; ++i) {
    loop.schedule_at(i * kMinute, [&, i] {
      ou::ValueObject args;
      args["n"] = Value(i + 1);
      compute.execute(fn, Value(std::move(args)), token,
                      [&](const Value& r, const of::ComputeTaskRecord& rec) {
                        landed.push_back({rec.id, rec.started, rec.completed,
                                          rec.status, r});
                      });
    });
  }
  loop.run_all();
  return landed;
}

}  // namespace

TEST_F(ComputeTest, OffloadedTasksLandLikeInlineOnes) {
  const std::vector<Landed> inline_run = run_four_on_batch(false);
  const std::vector<Landed> offloaded_run = run_four_on_batch(true);
  ASSERT_EQ(inline_run.size(), 4u);
  ASSERT_EQ(offloaded_run.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(offloaded_run[i].id, inline_run[i].id);
    EXPECT_EQ(offloaded_run[i].started, inline_run[i].started);
    EXPECT_EQ(offloaded_run[i].completed, inline_run[i].completed);
    EXPECT_EQ(offloaded_run[i].status, of::ComputeTaskStatus::kSucceeded);
    EXPECT_EQ(offloaded_run[i].result, inline_run[i].result);
    // Four nodes: nobody queues, so task i starts at minute i.
    EXPECT_EQ(offloaded_run[i].started, static_cast<of::SimTime>(i) * kMinute);
    EXPECT_EQ(offloaded_run[i].completed,
              offloaded_run[i].started + 20 * kMinute);
  }
}

TEST_F(ComputeTest, OffloadedPhasesRunAtStartAndCompletion) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  of::SimTime prepared_at = -1;
  of::SimTime committed_at = -1;
  std::string fn = login.register_offloaded(
      "phased",
      [&](const Value& args) {
        prepared_at = loop.now();
        const double x = args.at("x").as_double();
        return of::OffloadedBody{
            [x] { return Value(x * 2.0); },
            [&](Value worked) {
              committed_at = loop.now();
              ou::ValueObject out;
              out["y"] = std::move(worked);
              return Value(std::move(out));
            }};
      },
      30 * kSecond);
  loop.schedule_at(kMinute, [&] {
    ou::ValueObject args;
    args["x"] = Value(21.0);
    login.execute(fn, Value(std::move(args)), token,
                  [&](const Value& r, const of::ComputeTaskRecord& rec) {
                    EXPECT_EQ(rec.status, of::ComputeTaskStatus::kSucceeded);
                    EXPECT_DOUBLE_EQ(r.at("y").as_double(), 42.0);
                  });
  });
  loop.run_all();
  EXPECT_EQ(prepared_at, kMinute);
  EXPECT_EQ(committed_at, kMinute + 30 * kSecond);
}

TEST_F(ComputeTest, OffloadedWorkExceptionFailsAtCompletion) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  bool committed = false;
  std::string fn = login.register_offloaded(
      "bad",
      [&](const Value&) {
        return of::OffloadedBody{
            []() -> Value { throw std::runtime_error("kaboom"); },
            [&](Value v) {
              committed = true;
              return v;
            }};
      },
      kMinute);
  bool saw_failure = false;
  login.execute(fn, Value(ou::ValueObject{}), token,
                [&](const Value& result, const of::ComputeTaskRecord& rec) {
                  saw_failure = true;
                  EXPECT_EQ(rec.status, of::ComputeTaskStatus::kFailed);
                  EXPECT_EQ(rec.error, "kaboom");
                  EXPECT_EQ(rec.completed, kMinute);
                  EXPECT_TRUE(result.is_null());
                });
  loop.run_all();
  EXPECT_TRUE(saw_failure);
  EXPECT_FALSE(committed);
}

TEST_F(ComputeTest, KilledAndOverrunOffloadedTasksNeverRunTheirWork) {
  of::BatchScheduler pbs(loop, 2);
  of::ComputeEndpoint compute("compute", loop, auth, pbs);
  compute.set_batch_walltime(30 * kMinute);
  of::FaultPlan plan(7);
  plan.script_nth(of::FaultKind::kComputeKill, "compute", 0);
  loop.set_fault_plan(&plan);
  auto prepared = std::make_shared<std::atomic<int>>(0);
  auto worked = std::make_shared<std::atomic<int>>(0);
  auto offloaded = [prepared, worked](const Value&) {
    prepared->fetch_add(1);
    return of::OffloadedBody{[worked] {
                               worked->fetch_add(1);
                               return Value(0);
                             },
                             nullptr};
  };
  std::string killed = compute.register_offloaded("killed", offloaded,
                                                  20 * kMinute);
  std::string overrun = compute.register_offloaded("overrun", offloaded,
                                                   kHour);
  std::vector<std::string> errors;
  auto on_done = [&](const Value& r, const of::ComputeTaskRecord& rec) {
    EXPECT_EQ(rec.status, of::ComputeTaskStatus::kFailed);
    EXPECT_TRUE(r.is_null());
    errors.push_back(rec.error);
  };
  compute.execute(killed, Value(ou::ValueObject{}), token, on_done);
  compute.execute(overrun, Value(ou::ValueObject{}), token, on_done);
  loop.run_all();
  loop.set_fault_plan(nullptr);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("killed"), std::string::npos) << errors[0];
  EXPECT_NE(errors[1].find("walltime exceeded"), std::string::npos)
      << errors[1];
  EXPECT_EQ(prepared->load(), 0);
  EXPECT_EQ(worked->load(), 0);
}

TEST_F(ComputeTest, OffloadedOutageNeverRunsTheWork) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  of::FaultPlan plan(7);
  plan.script_window(of::FaultKind::kEndpointOutage, "login", 0, kHour);
  loop.set_fault_plan(&plan);
  bool prepared = false;
  std::string fn = login.register_offloaded(
      "f",
      [&](const Value&) {
        prepared = true;
        return of::OffloadedBody{[] { return Value(0); }, nullptr};
      },
      kMinute);
  std::string error;
  login.execute(fn, Value(ou::ValueObject{}), token,
                [&](const Value&, const of::ComputeTaskRecord& rec) {
                  error = rec.error;
                });
  loop.run_all();
  loop.set_fault_plan(nullptr);
  EXPECT_NE(error.find("outage"), std::string::npos) << error;
  EXPECT_FALSE(prepared);
}

TEST_F(ComputeTest, DestroyingEndpointWaitsForInFlightWork) {
  auto finished = std::make_shared<std::atomic<int>>(0);
  bool called_back = false;
  {
    of::BatchScheduler pbs(loop, 2);
    of::ComputeEndpoint compute("compute", loop, auth, pbs);
    std::string fn = compute.register_offloaded(
        "slow",
        [finished](const Value&) {
          return of::OffloadedBody{[finished] {
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(50));
                                     finished->fetch_add(1);
                                     return Value(0);
                                   },
                                   nullptr};
        },
        20 * kMinute);
    for (int i = 0; i < 2; ++i) {
      compute.execute(fn, Value(ou::ValueObject{}), token,
                      [&](const Value&, const of::ComputeTaskRecord&) {
                        called_back = true;
                      });
    }
    loop.run_until(kMinute);  // both started; neither has completed
    EXPECT_EQ(compute.in_flight(), 2u);
  }
  EXPECT_EQ(finished->load(), 2);
  EXPECT_FALSE(called_back);
}
