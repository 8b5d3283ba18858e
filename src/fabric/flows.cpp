#include "fabric/flows.hpp"

#include <memory>

#include "util/error.hpp"
#include "util/log.hpp"

namespace osprey::fabric {

FlowsService::FlowsService(EventLoop& loop, AuthService& auth)
    : loop_(loop),
      auth_(auth),
      succeeded_(loop.metrics().counter(
          "fabric_flow_runs_succeeded_total",
          "flow runs that completed every step")) {}

FlowRunId FlowsService::run(FlowDefinition flow, const std::string& token,
                            RunCallback on_done) {
  auth_.validate(token, scopes::kFlows);
  OSPREY_REQUIRE(!flow.steps.empty(), "flow has no steps");
  FlowRunId id = next_id_++;
  auto active = std::make_shared<ActiveRun>();
  FlowRunRecord& rec = active->record;
  rec.id = id;
  rec.flow_name = flow.name;
  rec.started = loop_.now();
  if (tracer_ != nullptr) {
    rec.trace_span = tracer_->begin_span(
        obs::Category::kFlow, "flow:" + flow.name, obs::sim_ns(rec.started));
  }
  active->flow = std::move(flow);
  active->on_done = std::move(on_done);
  in_flight_.emplace(id, active);

  loop_.schedule_after(0, [this, active] { advance(active); });
  return id;
}

void FlowsService::advance(std::shared_ptr<ActiveRun> run) {
  FlowRunRecord& rec = run->record;
  if (run->next_step >= run->flow.steps.size()) {
    finish(run, FlowRunStatus::kSucceeded);
    return;
  }
  std::size_t step_index = run->next_step++;
  const FlowStep& step = run->flow.steps[step_index];
  rec.steps.push_back(
      StepRecord{step.name, loop_.now(), -1, false, "", obs::kNoSpan});
  if (tracer_ != nullptr) {
    rec.steps.back().trace_span = tracer_->begin_span(
        obs::Category::kFlow, "step:" + step.name, obs::sim_ns(loop_.now()),
        rec.trace_span, rec.flow_name);
  }
  OSPREY_LOG_DEBUG("flows", rec.flow_name << " step '" << step.name << "'");

  // The completion continuation may fire later in virtual time.
  auto done = [this, run, step_index](bool ok, const std::string& error) {
    FlowRunRecord& r = run->record;
    StepRecord& sr = r.steps[step_index];
    // The first completion wins. A run finishes only once its current
    // step has ended, so this also drops completions that arrive after
    // the run finished.
    if (sr.ended >= 0) return;
    sr.ended = loop_.now();
    sr.ok = ok;
    sr.error = error;
    if (tracer_ != nullptr) {
      tracer_->end_span(sr.trace_span, obs::sim_ns(sr.ended), ok, error);
    }
    if (!ok) {
      OSPREY_LOG_WARN("flows", r.flow_name << " step '" << sr.name
                                           << "' failed: " << error);
      finish(run, FlowRunStatus::kFailed);
      return;
    }
    advance(run);
  };

  auto invoke = [run, step_index, done] {
    const FlowStep& s = run->flow.steps[step_index];
    // Transfers/compute submitted by the step body nest under its span.
    obs::CurrentSpanGuard span_guard(run->record.steps[step_index].trace_span);
    try {
      s.fn(done);
    } catch (const std::exception& e) {
      done(false, e.what());
    }
  };
  FaultPlan* plan = loop_.fault_plan();
  if (plan != nullptr &&
      plan->should_inject(FaultKind::kFlowStall, "flows", rec.flow_name,
                          loop_.now())) {
    // The step starts late; the flow itself still completes, so stalls
    // surface as latency, not failure.
    loop_.schedule_after(plan->stall_delay, invoke);
    return;
  }
  invoke();
}

void FlowsService::finish(std::shared_ptr<ActiveRun> run,
                          FlowRunStatus status) {
  FlowRunRecord& rec = run->record;
  rec.status = status;
  rec.ended = loop_.now();
  if (tracer_ != nullptr) {
    tracer_->end_span(rec.trace_span, obs::sim_ns(rec.ended),
                      status == FlowRunStatus::kSucceeded);
  }
  if (status == FlowRunStatus::kSucceeded) succeeded_.inc();
  in_flight_.erase(rec.id);
  if (run->on_done) run->on_done(rec);
}

}  // namespace osprey::fabric
