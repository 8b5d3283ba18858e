#include "fabric/compute.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"

namespace osprey::fabric {

ComputeEndpoint::ComputeEndpoint(std::string name, EventLoop& loop,
                                 AuthService& auth, int slots)
    : ComputeEndpoint(std::move(name), loop, auth, EndpointKind::kLoginNode,
                      slots, nullptr) {
  OSPREY_REQUIRE(slots >= 1, "login-node endpoint needs at least one slot");
}

ComputeEndpoint::ComputeEndpoint(std::string name, EventLoop& loop,
                                 AuthService& auth, BatchScheduler& scheduler)
    : ComputeEndpoint(std::move(name), loop, auth, EndpointKind::kBatch, 1,
                      &scheduler) {}

ComputeEndpoint::ComputeEndpoint(std::string name, EventLoop& loop,
                                 AuthService& auth, EndpointKind kind,
                                 int slots, BatchScheduler* scheduler)
    : name_(std::move(name)),
      loop_(loop),
      auth_(auth),
      kind_(kind),
      slots_(slots),
      scheduler_(scheduler),
      uuids_(0xC0DE),
      m_succeeded_(loop.metrics().counter(
          "fabric_compute_tasks_succeeded_total",
          "compute tasks that ran to completion")),
      m_failed_(loop.metrics().counter(
          "fabric_compute_tasks_failed_total",
          "compute tasks that failed (outage, kill, walltime, error)")),
      m_latency_(loop.metrics().histogram(
          "fabric_compute_task_latency_ms",
          {1e3, 10e3, 60e3, 600e3, 3.6e6, 14.4e6},
          "submission-to-completion virtual latency per compute task "
          "(ms)")) {}

std::string ComputeEndpoint::register_function(const std::string& name,
                                               ComputeFn fn, SimTime cost) {
  return register_function(name, std::move(fn),
                           CostFn([cost](const Value&) { return cost; }));
}

std::string ComputeEndpoint::register_function(const std::string& name,
                                               ComputeFn fn, CostFn cost) {
  OSPREY_REQUIRE(static_cast<bool>(fn), "null compute function");
  OSPREY_REQUIRE(static_cast<bool>(cost), "null cost function");
  std::string id = "fn-" + uuids_.next();
  functions_.emplace(id, Registered{name, std::move(fn), std::move(cost)});
  return id;
}

bool ComputeEndpoint::has_function(const std::string& function_id) const {
  return functions_.count(function_id) > 0;
}

ComputeTaskRecord ComputeEndpoint::retire(ComputeTaskId id) {
  auto node = in_flight_.extract(id);
  OSPREY_CHECK(!node.empty(), "compute task completed twice");
  ComputeTaskRecord rec = std::move(node.mapped());
  rec.completed = loop_.now();
  const bool ok = rec.status == ComputeTaskStatus::kSucceeded;
  if (tracer_ != nullptr) {
    tracer_->end_span(rec.trace_span, obs::sim_ns(rec.completed), ok,
                      rec.error);
  }
  if (ok) {
    m_succeeded_.inc();
  } else {
    m_failed_.inc();
  }
  if (rec.completed >= rec.submitted) {
    m_latency_.observe(static_cast<double>(rec.completed - rec.submitted));
  }
  return rec;
}

ComputeTaskId ComputeEndpoint::execute(const std::string& function_id,
                                       Value args, const std::string& token,
                                       Callback on_done) {
  auth_.validate(token, scopes::kCompute);
  auto it = functions_.find(function_id);
  if (it == functions_.end()) {
    throw osprey::util::NotFound("unknown compute function: " + function_id);
  }
  ComputeTaskId id = next_id_++;
  ComputeTaskRecord& rec = in_flight_[id];
  rec.id = id;
  rec.function_name = it->second.name;
  rec.endpoint = name_;
  rec.submitted = loop_.now();
  if (tracer_ != nullptr) {
    rec.trace_span = tracer_->begin_span(
        obs::Category::kCompute, "compute:" + rec.function_name,
        obs::sim_ns(rec.submitted), obs::kInheritParent,
        name_ + (kind_ == EndpointKind::kBatch ? " (batch)" : " (login)"));
  }

  FaultPlan* plan = loop_.fault_plan();
  if (plan != nullptr &&
      plan->in_window(FaultKind::kEndpointOutage, "compute", name_,
                      loop_.now())) {
    // Endpoint unreachable: the submission fails fast after a short
    // connection timeout instead of queueing into a black hole.
    Callback cb = std::move(on_done);
    loop_.schedule_after(10 * osprey::util::kSecond,
                         [this, id, cb = std::move(cb)] {
                           ComputeTaskRecord& r = in_flight_.at(id);
                           r.status = ComputeTaskStatus::kFailed;
                           r.error = "endpoint unreachable (outage)";
                           ComputeTaskRecord retired = retire(id);
                           if (cb) cb(Value(nullptr), retired);
                         });
    return id;
  }

  PendingTask task{id, &it->second, std::move(args), std::move(on_done)};
  if (kind_ == EndpointKind::kLoginNode) {
    run_on_login_node(std::move(task));
  } else {
    run_via_scheduler(std::move(task));
  }
  return id;
}

void ComputeEndpoint::set_batch_walltime(SimTime walltime) {
  OSPREY_REQUIRE(kind_ == EndpointKind::kBatch,
                 "walltime applies to batch endpoints");
  OSPREY_REQUIRE(walltime > 0, "walltime must be positive");
  batch_walltime_ = walltime;
}

SimTime ComputeEndpoint::execute_body(PendingTask& task, SimTime limit) {
  ComputeTaskRecord& rec = in_flight_.at(task.id);
  rec.started = loop_.now();
  rec.status = ComputeTaskStatus::kRunning;
  SimTime duration = 0;   // raw declared cost (returned to the scheduler)
  SimTime occupy = 0;     // virtual time until the task record completes
  Value result;
  try {
    duration = task.fn->cost(task.args);
    OSPREY_CHECK(duration >= 0, "negative declared cost");
    occupy = duration;
    if (limit >= 0 && duration > limit) {
      // The job will be killed at the walltime: the function's outputs
      // never materialize, and the caller learns of the failure at the
      // kill time. The raw duration is still returned so the scheduler
      // records the job as TIMEOUT.
      rec.status = ComputeTaskStatus::kFailed;
      rec.error = "walltime exceeded (" +
                  osprey::util::format_duration(duration) + " > " +
                  osprey::util::format_duration(limit) + ")";
      result = Value(nullptr);
      occupy = limit;
      OSPREY_LOG_WARN("compute", rec.function_name << " " << rec.error);
    } else if (FaultPlan* plan = loop_.fault_plan();
               plan != nullptr &&
               plan->should_inject(FaultKind::kComputeKill, "compute", name_,
                                   loop_.now())) {
      // Injected mid-run kill: the task dies halfway through its
      // declared cost; outputs never materialize. The shortened
      // duration is also what the scheduler sees, so the node frees at
      // the kill time.
      occupy = std::max<SimTime>(1, occupy / 2);
      if (limit >= 0) occupy = std::min(occupy, limit);
      duration = occupy;
      rec.status = ComputeTaskStatus::kFailed;
      rec.error = "task killed (injected) after " +
                  osprey::util::format_duration(occupy);
      result = Value(nullptr);
      OSPREY_LOG_WARN("compute", rec.function_name << " " << rec.error);
    } else {
      result = task.fn->fn(task.args);
      rec.status = ComputeTaskStatus::kSucceeded;
    }
  } catch (const std::exception& e) {
    rec.status = ComputeTaskStatus::kFailed;
    rec.error = e.what();
    result = Value(nullptr);
    OSPREY_LOG_WARN("compute", rec.function_name << " failed: " << e.what());
  }
  // Completion (and the caller's callback) land `duration` later in
  // virtual time, even though the C++ body already ran. The execute_body
  // result above already respects the limit, so rec and the scheduler's
  // job state agree on kills.
  Callback cb = std::move(task.on_done);
  ComputeTaskId id = task.id;
  loop_.schedule_after(occupy,
                       [this, id, cb = std::move(cb),
                        result = std::move(result)] {
                         ComputeTaskRecord r = retire(id);
                         if (cb) cb(result, r);
                       });
  return duration;
}

void ComputeEndpoint::run_on_login_node(PendingTask task) {
  if (busy_slots_ >= slots_) {
    login_queue_.push_back(std::move(task));
    return;
  }
  ++busy_slots_;
  // Run on the next tick to keep submission re-entrancy simple.
  auto shared = std::make_shared<PendingTask>(std::move(task));
  loop_.schedule_after(0, [this, shared] {
    SimTime duration = execute_body(*shared);
    loop_.schedule_after(duration, [this] {
      --busy_slots_;
      drain_login_queue();
    });
  });
}

void ComputeEndpoint::drain_login_queue() {
  while (busy_slots_ < slots_ && !login_queue_.empty()) {
    PendingTask task = std::move(login_queue_.front());
    login_queue_.pop_front();
    ++busy_slots_;
    auto shared = std::make_shared<PendingTask>(std::move(task));
    SimTime duration = execute_body(*shared);
    loop_.schedule_after(duration, [this] {
      --busy_slots_;
      drain_login_queue();
    });
  }
}

void ComputeEndpoint::run_via_scheduler(PendingTask task) {
  auto shared = std::make_shared<PendingTask>(std::move(task));
  JobSpec spec;
  spec.name = "gc:" + shared->fn->name;
  spec.nodes = 1;
  spec.walltime = batch_walltime_;
  SimTime limit = batch_walltime_;
  spec.run = [this, shared, limit]() -> SimTime {
    return execute_body(*shared, limit);
  };
  scheduler_->submit(std::move(spec));
}

}  // namespace osprey::fabric
