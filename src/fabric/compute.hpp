#pragma once

/// \file compute.hpp
/// Simulated Globus Compute (funcX): a federated function-serving
/// endpoint. Users register functions and execute them remotely with
/// JSON-like arguments. Two endpoint kinds reproduce the paper's setup:
///
///  - kLoginNode: a shared login node with a small number of slots;
///    cheap tasks (the paper's data transformation and aggregation, each
///    "running in under a minute") execute here directly.
///  - kBatch: each execution submits a one-node job to the PBS-style
///    BatchScheduler (the paper's GlobusComputeEngine on Bebop), so
///    expensive tasks pay queue wait before running.
///
/// Functions execute real C++ inline; their *virtual* duration is the
/// registered cost (possibly input-dependent).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "fabric/auth.hpp"
#include "fabric/event_loop.hpp"
#include "fabric/fault.hpp"
#include "fabric/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/uuid.hpp"
#include "util/value.hpp"

namespace osprey::fabric {

using osprey::util::Value;

/// A registered remote function: Value in, Value out.
using ComputeFn = std::function<Value(const Value&)>;
/// Virtual cost model for a function, possibly input-dependent.
using CostFn = std::function<SimTime(const Value&)>;

using ComputeTaskId = std::uint64_t;

enum class ComputeTaskStatus { kPending, kRunning, kSucceeded, kFailed };

struct ComputeTaskRecord {
  ComputeTaskId id = 0;
  std::string function_name;
  std::string endpoint;
  SimTime submitted = 0;
  SimTime started = -1;
  SimTime completed = -1;
  ComputeTaskStatus status = ComputeTaskStatus::kPending;
  std::string error;
  obs::SpanId trace_span = obs::kNoSpan;
};

enum class EndpointKind { kLoginNode, kBatch };

/// A Globus-Compute-like endpoint bound to either login-node slots or a
/// batch scheduler.
class ComputeEndpoint {
 public:
  /// Login-node endpoint with `slots` concurrent execution slots.
  ComputeEndpoint(std::string name, EventLoop& loop, AuthService& auth,
                  int slots);
  /// Batch endpoint: executions become one-node jobs on `scheduler`.
  ComputeEndpoint(std::string name, EventLoop& loop, AuthService& auth,
                  BatchScheduler& scheduler);

  const std::string& name() const { return name_; }
  EndpointKind kind() const { return kind_; }

  /// Attach a trace recorder (non-owning; nullptr detaches). Each task
  /// becomes a span from submission to completion (queue wait included),
  /// parented to the submitting thread's current span.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  /// Walltime requested for each batch job (batch endpoints only).
  /// Tasks whose declared cost exceeds it are killed by the scheduler
  /// and reported failed ("walltime exceeded").
  void set_batch_walltime(SimTime walltime);
  SimTime batch_walltime() const { return batch_walltime_; }

  /// Register a function with a fixed virtual cost.
  std::string register_function(const std::string& name, ComputeFn fn,
                                SimTime cost);
  /// Register a function with an input-dependent virtual cost.
  std::string register_function(const std::string& name, ComputeFn fn,
                                CostFn cost);
  bool has_function(const std::string& function_id) const;

  using Callback =
      std::function<void(const Value& result, const ComputeTaskRecord&)>;

  /// Execute asynchronously; `on_done` fires in virtual time once the
  /// task has run (or failed — result is null and record.error set).
  /// The record is retired when its completion lands: `on_done` gets the
  /// final record, and the endpoint keeps no history.
  ComputeTaskId execute(const std::string& function_id, Value args,
                        const std::string& token, Callback on_done);

  /// Tasks submitted whose completion has not landed yet.
  std::size_t in_flight() const { return in_flight_.size(); }
  /// Tasks of this endpoint whose completion has landed (succeeded or
  /// failed): ids issued minus in_flight(). The registry's task
  /// counters are per loop instead.
  std::size_t completed_count() const {
    return static_cast<std::size_t>(next_id_) - in_flight_.size();
  }

 private:
  struct Registered {
    std::string name;
    ComputeFn fn;
    CostFn cost;
  };

  struct PendingTask {
    ComputeTaskId id;
    const Registered* fn;
    Value args;
    Callback on_done;
  };

  ComputeEndpoint(std::string name, EventLoop& loop, AuthService& auth,
                  EndpointKind kind, int slots, BatchScheduler* scheduler);

  void run_on_login_node(PendingTask task);
  void run_via_scheduler(PendingTask task);
  void drain_login_queue();
  /// Executes the function body, fills the record, schedules the callback
  /// `duration` later. When `limit >= 0` and the declared cost exceeds
  /// it, the body is NOT run: the task fails at the limit (walltime
  /// kill). Returns the virtual duration the resources are occupied.
  SimTime execute_body(PendingTask& task, SimTime limit = -1);

  std::string name_;
  EventLoop& loop_;
  AuthService& auth_;
  EndpointKind kind_;
  int slots_ = 1;
  int busy_slots_ = 0;
  BatchScheduler* scheduler_ = nullptr;
  SimTime batch_walltime_ = 4 * osprey::util::kHour;
  osprey::util::UuidFactory uuids_;
  std::map<std::string, Registered> functions_;  // id -> registration
  /// In-flight records by id; node-based, so the record a running body
  /// fills stays valid while that body submits more tasks.
  std::unordered_map<ComputeTaskId, ComputeTaskRecord> in_flight_;
  ComputeTaskId next_id_ = 0;
  std::deque<PendingTask> login_queue_;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::Counter& m_succeeded_;
  obs::Counter& m_failed_;
  obs::Histogram& m_latency_;

  /// Retires a record as its completion lands: stamps `completed`, ends
  /// the span and bumps metrics.
  ComputeTaskRecord retire(ComputeTaskId id);
};

}  // namespace osprey::fabric
