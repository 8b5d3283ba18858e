#pragma once

/// \file platform.hpp
/// The OSPREY orchestration stack: the simulated research fabric (event
/// loop, auth, timers, transfer, flows, named storage/scheduler/compute
/// endpoints) with the AERO server on top. The use cases run on one;
/// every ShardPartition owns one. osprey_lint's stack-wiring rule keeps
/// it the only place outside the fabric that constructs these services.

#include <cstdint>
#include <map>
#include <string>

#include "aero/server.hpp"
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

namespace osprey::aero {

class OspreyPlatform {
 public:
  /// AERO authenticates as `identity` and seeds its uuids with
  /// `uuid_seed` (AeroServer's defaults). With `tracing` off no service
  /// or endpoint gets a recorder, so none builds span names to drop.
  explicit OspreyPlatform(std::string identity = "aero",
                          std::uint64_t uuid_seed = 0xAE70,
                          bool tracing = true);

  OspreyPlatform(const OspreyPlatform&) = delete;
  OspreyPlatform& operator=(const OspreyPlatform&) = delete;

  // --- fabric services ---
  fabric::EventLoop& loop() { return loop_; }
  const fabric::EventLoop& loop() const { return loop_; }
  fabric::AuthService& auth() { return auth_; }
  fabric::TransferService& transfers() { return transfers_; }
  const fabric::TransferService& transfers() const { return transfers_; }
  fabric::FlowsService& flows() { return flows_; }
  const fabric::FlowsService& flows() const { return flows_; }

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
  const fabric::ComputeEndpoint& compute_endpoint(
      const std::string& name) const;
  fabric::BatchScheduler& scheduler(const std::string& name);

  // --- orchestration ---
  AeroServer& aero() { return aero_; }

  // --- observability ---
  /// The platform-wide trace recorder (empty with tracing off). Every
  /// fabric service, endpoint and the AERO server record into it on
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
  // Declared first so it outlives everything tracing into it.
  obs::TraceRecorder tracer_;
  obs::TraceRecorder* const recorder_;  // &tracer_, or nullptr untraced
  fabric::EventLoop loop_;
  fabric::AuthService auth_;
  fabric::TimerService timers_;
  fabric::TransferService transfers_;
  fabric::FlowsService flows_;
  // Map nodes never move, so the references add_* return stay valid.
  std::map<std::string, fabric::StorageEndpoint> storage_;
  std::map<std::string, fabric::BatchScheduler> schedulers_;
  std::map<std::string, fabric::ComputeEndpoint> compute_;
  AeroServer aero_;
};

}  // namespace osprey::aero
