#pragma once

/// \file platform.hpp
/// The OSPREY platform facade: one object owning the simulated research
/// fabric (event loop, auth, storage/compute endpoints, transfer, timers,
/// flows, schedulers), the AERO orchestration server, and the EMEWS task
/// database — the pieces the paper's two use cases are wired from.

#include <map>
#include <memory>
#include <string>

#include "aero/server.hpp"
#include "emews/task_db.hpp"
#include "fabric/auth.hpp"
#include "fabric/compute.hpp"
#include "fabric/event_loop.hpp"
#include "fabric/flows.hpp"
#include "fabric/scheduler.hpp"
#include "fabric/storage.hpp"
#include "fabric/timer.hpp"
#include "fabric/transfer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace osprey::core {

class OspreyPlatform {
 public:
  OspreyPlatform();

  OspreyPlatform(const OspreyPlatform&) = delete;
  OspreyPlatform& operator=(const OspreyPlatform&) = delete;

  // --- fabric services ---
  fabric::EventLoop& loop() { return loop_; }
  fabric::AuthService& auth() { return auth_; }
  fabric::TimerService& timers() { return timers_; }
  fabric::TransferService& transfers() { return transfers_; }
  fabric::FlowsService& flows() { return flows_; }

  // --- resource construction ("bring your own storage and compute") ---
  fabric::StorageEndpoint& add_storage_endpoint(const std::string& name);
  fabric::BatchScheduler& add_scheduler(const std::string& name, int nodes);
  fabric::ComputeEndpoint& add_login_endpoint(const std::string& name,
                                              int slots);
  fabric::ComputeEndpoint& add_batch_endpoint(const std::string& name,
                                              fabric::BatchScheduler& sched);

  fabric::StorageEndpoint& storage_endpoint(const std::string& name);
  const fabric::StorageEndpoint& storage_endpoint(
      const std::string& name) const;
  fabric::ComputeEndpoint& compute_endpoint(const std::string& name);
  fabric::BatchScheduler& scheduler(const std::string& name);

  // --- orchestration layers ---
  aero::AeroServer& aero() { return aero_; }
  emews::TaskDb& task_db() { return task_db_; }

  // --- observability ---
  /// The platform-wide trace recorder. Every fabric service, the AERO
  /// server and the EMEWS task database record into it; timestamps are
  /// simulated time, so replays of the same seed yield identical traces.
  obs::TraceRecorder& tracer() { return tracer_; }
  const obs::TraceRecorder& tracer() const { return tracer_; }
  /// The platform-wide metrics registry (fabric_* and aero_* metrics):
  /// the event loop's.
  obs::MetricsRegistry& metrics() { return loop_.metrics(); }
  const obs::MetricsRegistry& metrics() const { return loop_.metrics(); }

  /// Attach a chaos FaultPlan (non-owning) to the event loop, which
  /// every fabric service and the AERO server read it from (so it also
  /// reaches endpoints/schedulers added later), and to the auth service,
  /// which is not on the loop. Pass nullptr to detach everywhere.
  void install_fault_plan(fabric::FaultPlan* plan);

  /// Issue a full-scope token for a user identity.
  std::string issue_token(const std::string& identity);

  /// Advance virtual time by whole days, processing all events.
  void run_days(int days);
  /// Advance to an absolute virtual time.
  void run_until(fabric::SimTime t);

 private:
  // Declared before the services so it outlives everything tracing
  // into it.
  obs::TraceRecorder tracer_;
  fabric::EventLoop loop_;
  fabric::AuthService auth_;
  fabric::TimerService timers_;
  fabric::TransferService transfers_;
  fabric::FlowsService flows_;
  std::map<std::string, std::unique_ptr<fabric::StorageEndpoint>> storage_;
  std::map<std::string, std::unique_ptr<fabric::BatchScheduler>> schedulers_;
  std::map<std::string, std::unique_ptr<fabric::ComputeEndpoint>> compute_;
  aero::AeroServer aero_;
  emews::TaskDb task_db_;
};

}  // namespace osprey::core
