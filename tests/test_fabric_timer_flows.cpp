#include <gtest/gtest.h>

#include "fabric/flows.hpp"
#include "fabric/timer.hpp"
#include "util/error.hpp"

namespace of = osprey::fabric;
namespace ou = osprey::util;
using ou::kDay;
using ou::kHour;
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
