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
/// A task's *virtual* duration is the registered cost (possibly
/// input-dependent): it starts, runs its real C++ body, and completes
/// `cost` later in virtual time. A function registered with
/// register_function runs its body inline on the loop thread at the
/// virtual start. One registered with register_offloaded runs in three
/// phases that fill the gap between virtual start and completion:
///
///  - prepare, on the loop thread at the virtual start: reads sim time,
///    the current span and other loop-owned state, and returns the
///    task's work and commit;
///  - work, on util::global_pool(): pure, touching no loop-owned state,
///    so several tasks' bodies run side by side in real time;
///  - commit, on the loop thread at the completion event, which joins
///    the work first: applies the effects that depend on the result and
///    returns the task's result.
///
/// Completion times, callback order and results are those of the same
/// function run inline: only where the real C++ runs changes.

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
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

/// What an offloaded function's prepare step hands back: `work` runs on
/// util::global_pool() and must not touch loop-owned state; `commit`
/// runs on the loop thread at the task's completion with the work's
/// result and returns the task's result (a null commit passes the
/// work's result through). An exception from either fails the task at
/// completion with its message.
struct OffloadedBody {
  std::function<Value()> work;
  std::function<Value(Value)> commit;
};
/// Prepare step of an offloaded function: runs on the loop thread at
/// the task's virtual start; an exception fails the task like an inline
/// body's would.
using PrepareFn = std::function<OffloadedBody(const Value& args)>;

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
  /// Waits for the work of offloaded tasks still in flight; their
  /// commits and callbacks never run.
  ~ComputeEndpoint();

  ComputeEndpoint(const ComputeEndpoint&) = delete;
  ComputeEndpoint& operator=(const ComputeEndpoint&) = delete;

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

  /// Register a function with a fixed virtual cost.
  std::string register_function(const std::string& name, ComputeFn fn,
                                SimTime cost);
  /// Register a function with an input-dependent virtual cost.
  std::string register_function(const std::string& name, ComputeFn fn,
                                CostFn cost);
  /// Register a function whose body runs off the loop thread (see the
  /// file comment): `prepare` at the virtual start, its work on the
  /// shared pool, its commit at the completion `cost` later. Kills,
  /// walltime overruns and outages fail the task before prepare runs.
  std::string register_offloaded(const std::string& name, PrepareFn prepare,
                                 SimTime cost);
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
  /// Exactly one of `fn` (inline) and `prepare` (offloaded) is set.
  struct Registered {
    std::string name;
    ComputeFn fn;
    PrepareFn prepare;
    CostFn cost;
  };

  /// An offloaded task between its virtual start and completion.
  struct Offloaded {
    std::future<Value> work;
    std::function<Value(Value)> commit;
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
  /// Executes the function body (or an offloaded function's prepare
  /// step, starting its work), fills the record, schedules the callback
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
  /// Offloaded tasks whose work has started, by id.
  std::map<ComputeTaskId, Offloaded> offloaded_;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::Counter& m_succeeded_;
  obs::Counter& m_failed_;
  obs::Histogram& m_latency_;

  /// Retires a record as its completion lands: stamps `completed`, ends
  /// the span and bumps metrics.
  ComputeTaskRecord retire(ComputeTaskId id);
  /// At an offloaded task's completion: joins its work, runs the commit
  /// and settles the record's status. Returns the task's result.
  Value finish_offloaded(ComputeTaskId id);
};

}  // namespace osprey::fabric
