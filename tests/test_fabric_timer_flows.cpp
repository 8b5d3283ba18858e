#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fabric/flows.hpp"
#include "fabric/timer.hpp"
#include "util/error.hpp"

namespace of = osprey::fabric;
namespace ou = osprey::util;
using ou::kDay;
using ou::kHour;
using ou::kMinute;
using ou::kSecond;

class TimerFlowsTest : public ::testing::Test {
 protected:
  of::EventLoop loop;
  of::AuthService auth;
  of::TimerService timers{loop, auth};
  of::FlowsService flows{loop, auth};
  std::string token = auth.issue_full_token("user");
};

TEST_F(TimerFlowsTest, PeriodicFiring) {
  std::vector<of::SimTime> fires;
  timers.every(kDay, 6 * kHour, [&] { fires.push_back(loop.now()); }, token,
               "daily");
  loop.run_until(3 * kDay);
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], 6 * kHour);
  EXPECT_EQ(fires[1], kDay + 6 * kHour);
  EXPECT_EQ(fires[2], 2 * kDay + 6 * kHour);
  EXPECT_EQ(timers.total_fires(), 3u);
}

TEST_F(TimerFlowsTest, CancelStopsFiring) {
  int count = 0;
  of::TimerId id = timers.every(kHour, 0, [&] { ++count; }, token);
  loop.run_until(2 * kHour + kSecond);
  EXPECT_EQ(count, 3);  // t = 0, 1h, 2h
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_FALSE(timers.cancel(id));
  loop.run_until(10 * kHour);
  EXPECT_EQ(count, 3);
}

TEST_F(TimerFlowsTest, TimerCanCancelItself) {
  int count = 0;
  of::TimerId id = 0;
  id = timers.every(kHour, 0,
                    [&] {
                      if (++count == 2) timers.cancel(id);
                    },
                    token);
  loop.run_until(10 * kHour);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(timers.active_count(), 0u);
}

// Cancelling from inside the timer's own callback lets that callback
// finish (its captures stay alive until it returns) and stops later
// fires.
TEST_F(TimerFlowsTest, SelfCancelFinishesTheRunningCallback) {
  auto alive = std::make_shared<int>(0);
  std::weak_ptr<int> watch = alive;
  std::vector<int> after_cancel;
  of::TimerId id = 0;
  id = timers.every(kHour, 0,
                    [&, alive = std::move(alive)] {
                      ++*alive;
                      EXPECT_TRUE(timers.cancel(id));
                      EXPECT_EQ(timers.active_count(), 0u);
                      EXPECT_FALSE(watch.expired());
                      after_cancel.push_back(*alive);  // still valid
                    },
                    token);
  EXPECT_EQ(timers.active_count(), 1u);
  loop.run_until(5 * kHour);
  EXPECT_EQ(after_cancel, std::vector<int>{1});
  EXPECT_EQ(timers.total_fires(), 1u);
  EXPECT_TRUE(watch.expired());  // released once it returned
  EXPECT_FALSE(timers.cancel(id));
  EXPECT_EQ(timers.active_count(), 0u);
}

// every() from inside a callback appends to the table: earlier ids,
// the running timer's included, stay valid and cancellable.
TEST_F(TimerFlowsTest, EveryFromInsideCallbackKeepsEarlierIds) {
  std::vector<of::TimerId> spawned;
  std::vector<std::string> fired;
  of::TimerId parent = timers.every(
      kHour, 0,
      [&] {
        fired.push_back("parent");
        // Enough appends to move a vector's storage several times.
        for (int i = 0; i < 64; ++i) {
          const std::string name = "child" + std::to_string(spawned.size());
          spawned.push_back(timers.every(
              kDay, loop.now() + kMinute,
              [&fired, name] { fired.push_back(name); }, token));
        }
      },
      token);
  EXPECT_EQ(parent, 0u);
  loop.run_until(kHour + kSecond);  // the parent fired at 0 and 1h
  ASSERT_EQ(spawned.size(), 128u);
  EXPECT_EQ(spawned.front(), 1u);
  EXPECT_EQ(spawned.back(), 128u);
  EXPECT_EQ(timers.active_count(), 129u);
  EXPECT_EQ(std::count(fired.begin(), fired.end(), "parent"), 2);
  EXPECT_EQ(std::count(fired.begin(), fired.end(), "child0"), 1);
  EXPECT_EQ(std::count(fired.begin(), fired.end(), "child64"), 0);
  EXPECT_TRUE(timers.cancel(parent));
  EXPECT_EQ(timers.active_count(), 128u);
  for (of::TimerId id : spawned) EXPECT_TRUE(timers.cancel(id));
  EXPECT_EQ(timers.active_count(), 0u);
  const std::size_t total = fired.size();
  loop.run_until(3 * kDay);
  EXPECT_EQ(fired.size(), total);
}

TEST_F(TimerFlowsTest, CancelUnknownOrCancelledIdReturnsFalse) {
  EXPECT_FALSE(timers.cancel(0));
  EXPECT_FALSE(timers.cancel(12345));
  of::TimerId a = timers.every(kHour, 0, [] {}, token);
  of::TimerId b = timers.every(kHour, 0, [] {}, token);
  EXPECT_EQ(timers.active_count(), 2u);
  EXPECT_FALSE(timers.cancel(b + 1));
  EXPECT_TRUE(timers.cancel(a));
  EXPECT_EQ(timers.active_count(), 1u);
  EXPECT_FALSE(timers.cancel(a));
  EXPECT_EQ(timers.active_count(), 1u);
  loop.run_until(2 * kHour + kSecond);
  EXPECT_EQ(timers.total_fires(), 3u);  // b only: 0, 1h, 2h
  EXPECT_TRUE(timers.cancel(b));
  EXPECT_FALSE(timers.cancel(b));
  EXPECT_EQ(timers.active_count(), 0u);
  // Ids are never reused.
  EXPECT_EQ(timers.every(kHour, loop.now(), [] {}, token), b + 1);
  EXPECT_EQ(timers.active_count(), 1u);
}

TEST_F(TimerFlowsTest, TimerRequiresScope) {
  std::string weak = auth.issue_token("weak", {of::scopes::kFlows});
  EXPECT_THROW(timers.every(kHour, 0, [] {}, weak), ou::AuthError);
  EXPECT_THROW(timers.every(0, 0, [] {}, token), ou::InvalidArgument);
}

TEST_F(TimerFlowsTest, FlowRunsStepsInOrder) {
  std::vector<std::string> order;
  of::FlowDefinition flow;
  flow.name = "pipeline";
  for (const std::string name : {"stage-in", "execute", "stage-out"}) {
    flow.steps.push_back(of::FlowStep{
        name, [&order, name](of::StepDone done) {
          order.push_back(name);
          done(true, "");
        }});
  }
  bool finished = false;
  flows.run(flow, token,
            [&](const of::FlowRunRecord& rec) {
              finished = true;
              EXPECT_EQ(rec.status, of::FlowRunStatus::kSucceeded);
              EXPECT_EQ(rec.steps.size(), 3u);
            });
  loop.run_all();
  EXPECT_TRUE(finished);
  EXPECT_EQ(order,
            (std::vector<std::string>{"stage-in", "execute", "stage-out"}));
}

TEST_F(TimerFlowsTest, AsyncStepsCompleteLater) {
  of::SimTime second_step_time = -1;
  of::FlowDefinition flow;
  flow.name = "async";
  flow.steps.push_back(of::FlowStep{
      "wait", [this](of::StepDone done) {
        loop.schedule_after(5 * kSecond, [done] { done(true, ""); });
      }});
  flow.steps.push_back(of::FlowStep{
      "after", [this, &second_step_time](of::StepDone done) {
        second_step_time = loop.now();
        done(true, "");
      }});
  flows.run(flow, token);
  loop.run_all();
  EXPECT_EQ(second_step_time, 5 * kSecond);
}

TEST_F(TimerFlowsTest, FailedStepAbortsFlow) {
  std::vector<std::string> ran;
  of::FlowDefinition flow;
  flow.name = "failing";
  flow.steps.push_back(of::FlowStep{
      "ok", [&](of::StepDone done) {
        ran.push_back("ok");
        done(true, "");
      }});
  flow.steps.push_back(of::FlowStep{
      "boom", [&](of::StepDone done) {
        ran.push_back("boom");
        done(false, "exploded");
      }});
  flow.steps.push_back(of::FlowStep{
      "never", [&](of::StepDone done) {
        ran.push_back("never");
        done(true, "");
      }});
  of::FlowRunRecord rec;
  flows.run(flow, token,
            [&](const of::FlowRunRecord& r) { rec = r; });
  loop.run_all();
  EXPECT_EQ(ran, (std::vector<std::string>{"ok", "boom"}));
  EXPECT_EQ(rec.status, of::FlowRunStatus::kFailed);
  EXPECT_EQ(rec.steps.back().error, "exploded");
  EXPECT_EQ(flows.runs_succeeded(), 0u);
  EXPECT_EQ(flows.in_flight(), 0u);
}

TEST_F(TimerFlowsTest, ThrowingStepIsCaught) {
  of::FlowDefinition flow;
  flow.name = "thrower";
  flow.steps.push_back(of::FlowStep{
      "throws", [](of::StepDone) {
        throw std::runtime_error("step exception");
      }});
  of::FlowRunRecord rec;
  flows.run(flow, token,
            [&](const of::FlowRunRecord& r) { rec = r; });
  loop.run_all();
  EXPECT_EQ(rec.status, of::FlowRunStatus::kFailed);
  EXPECT_NE(rec.steps.at(0).error.find("step exception"), std::string::npos);
}

TEST_F(TimerFlowsTest, LateDoneAfterThrowDoesNotFinishTheRunAgain) {
  // The step hands its continuation to a later event (as a multi-transfer
  // step does) and then throws: the throw fails the run, and the late
  // completion must not finish it a second time.
  of::FlowDefinition flow;
  flow.name = "late";
  flow.steps.push_back(of::FlowStep{
      "submit-then-throw", [&](of::StepDone done) {
        loop.schedule_after(kSecond, [done] { done(false, "late failure"); });
        throw std::runtime_error("submission threw");
      }});
  int finishes = 0;
  std::string error;
  flows.run(flow, token,
            [&](const of::FlowRunRecord& rec) {
              ++finishes;
              EXPECT_EQ(rec.status, of::FlowRunStatus::kFailed);
              error = rec.steps.at(0).error;
            });
  loop.run_all();
  EXPECT_EQ(finishes, 1);
  EXPECT_EQ(error, "submission threw");
}

TEST_F(TimerFlowsTest, FirstDoneWins) {
  int second_runs = 0;
  of::FlowDefinition flow;
  flow.name = "twice";
  flow.steps.push_back(
      of::FlowStep{"done-twice", [](of::StepDone done) {
                     done(true, "");
                     done(false, "ignored");
                   }});
  flow.steps.push_back(
      of::FlowStep{"second", [&](of::StepDone done) {
                     ++second_runs;
                     done(true, "");
                   }});
  int finishes = 0;
  flows.run(flow, token,
            [&](const of::FlowRunRecord& rec) {
              ++finishes;
              EXPECT_EQ(rec.status, of::FlowRunStatus::kSucceeded);
              EXPECT_TRUE(rec.steps.at(0).ok);
            });
  loop.run_all();
  EXPECT_EQ(second_runs, 1);
  EXPECT_EQ(finishes, 1);
  EXPECT_EQ(flows.runs_succeeded(), 1u);
}

TEST_F(TimerFlowsTest, EmptyFlowRejected) {
  of::FlowDefinition flow;
  flow.name = "empty";
  EXPECT_THROW(flows.run(flow, token), ou::InvalidArgument);
}
