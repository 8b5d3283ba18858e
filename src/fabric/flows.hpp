#pragma once

/// \file flows.hpp
/// Simulated Globus Flows: named sequences of asynchronous steps with
/// per-step provenance. AERO wraps every user function in a flow of
/// stage-in → execute → stage-out → metadata-update steps; this service
/// runs those sequences and records what happened. Steps share no
/// state through the service: a step that hands a value downstream
/// captures it (e.g. a shared_ptr both steps hold).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/auth.hpp"
#include "fabric/event_loop.hpp"
#include "fabric/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace osprey::fabric {

using FlowRunId = std::uint64_t;

enum class FlowRunStatus { kRunning, kSucceeded, kFailed };

struct StepRecord {
  std::string name;
  SimTime started = -1;
  SimTime ended = -1;
  bool ok = false;
  std::string error;
  obs::SpanId trace_span = obs::kNoSpan;
};

struct FlowRunRecord {
  FlowRunId id = 0;
  std::string flow_name;
  SimTime started = 0;
  SimTime ended = -1;
  FlowRunStatus status = FlowRunStatus::kRunning;
  std::vector<StepRecord> steps;
  obs::SpanId trace_span = obs::kNoSpan;
};

/// A step completes by calling `done(ok, error)` — possibly later in
/// virtual time (after a transfer or compute task finishes). Only the
/// first call counts; later calls, including any that arrive after the
/// run finished, are ignored.
using StepDone = std::function<void(bool ok, const std::string& error)>;
using StepFn = std::function<void(StepDone)>;

struct FlowStep {
  std::string name;
  StepFn fn;
};

/// Definition of a flow: an ordered list of named steps.
struct FlowDefinition {
  std::string name;
  std::vector<FlowStep> steps;
};

/// Runs flow definitions; keeps the records of in-flight runs only.
class FlowsService {
 public:
  FlowsService(EventLoop& loop, AuthService& auth);

  /// Attach a trace recorder (non-owning; nullptr detaches). Each run
  /// becomes a span with one child span per step; operations submitted
  /// inside a step (transfers, compute) nest under the step's span.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  using RunCallback = std::function<void(const FlowRunRecord&)>;

  /// Start a run of `flow` (moved into the run); steps execute in order,
  /// each beginning when its predecessor's `done` fires. A failed step
  /// aborts the run. The run's record is retired when it finishes:
  /// `on_done` gets the final record, and the service keeps no history.
  FlowRunId run(FlowDefinition flow, const std::string& token,
                RunCallback on_done = nullptr);

  /// Runs started that have not finished yet.
  std::size_t in_flight() const { return in_flight_.size(); }
  /// Runs that completed every step, across this loop's FlowsServices.
  std::size_t runs_succeeded() const {
    return static_cast<std::size_t>(succeeded_.value());
  }

 private:
  struct ActiveRun {
    FlowDefinition flow;
    RunCallback on_done;
    std::size_t next_step = 0;
    FlowRunRecord record;
  };

  void advance(std::shared_ptr<ActiveRun> run);
  void finish(std::shared_ptr<ActiveRun> run, FlowRunStatus status);

  EventLoop& loop_;
  AuthService& auth_;
  obs::TraceRecorder* tracer_ = nullptr;
  /// In-flight runs by id. Step continuations share ownership, so a run
  /// outlives its entry until the last late `done` is dropped.
  std::unordered_map<FlowRunId, std::shared_ptr<ActiveRun>> in_flight_;
  FlowRunId next_id_ = 0;
  obs::Counter& succeeded_;
};

}  // namespace osprey::fabric
