#include "aero/platform.hpp"

#include <utility>

#include "util/error.hpp"

namespace osprey::aero {

namespace {

/// Construct `T(args...)` under `name`, which must be new.
template <typename T, typename... Args>
T& add_named(std::map<std::string, T>& named, const char* what,
             const std::string& name, Args&&... args) {
  auto [it, added] = named.try_emplace(name, std::forward<Args>(args)...);
  OSPREY_REQUIRE(added, std::string(what) + " already exists: " + name);
  return it->second;
}

/// The object named `name`, or util::NotFound.
template <typename Map>
auto& find_named(Map& named, const char* what, const std::string& name) {
  auto it = named.find(name);
  if (it == named.end()) {
    throw osprey::util::NotFound(std::string("no such ") + what + ": " +
                                 name);
  }
  return it->second;
}

}  // namespace

OspreyPlatform::OspreyPlatform(std::string identity, std::uint64_t uuid_seed,
                               bool tracing)
    : recorder_(tracing ? &tracer_ : nullptr),
      timers_(loop_, auth_),
      transfers_(loop_, auth_),
      flows_(loop_, auth_),
      aero_(loop_, auth_, timers_, transfers_, flows_, std::move(identity),
            /*metrics=*/nullptr, uuid_seed) {
  timers_.set_tracer(recorder_);
  transfers_.set_tracer(recorder_);
  flows_.set_tracer(recorder_);
  aero_.set_tracer(recorder_);
}

fabric::StorageEndpoint& OspreyPlatform::add_storage_endpoint(
    const std::string& name) {
  return add_named(storage_, "storage endpoint", name, name, loop_, auth_);
}

fabric::BatchScheduler& OspreyPlatform::add_scheduler(const std::string& name,
                                                      int nodes) {
  fabric::BatchScheduler& sched =
      add_named(schedulers_, "scheduler", name, loop_, nodes, name);
  sched.set_tracer(recorder_);
  return sched;
}

fabric::ComputeEndpoint& OspreyPlatform::add_login_endpoint(
    const std::string& name, int slots) {
  fabric::ComputeEndpoint& ep =
      add_named(compute_, "compute endpoint", name, name, loop_, auth_, slots);
  ep.set_tracer(recorder_);
  return ep;
}

fabric::ComputeEndpoint& OspreyPlatform::add_batch_endpoint(
    const std::string& name, fabric::BatchScheduler& sched) {
  fabric::ComputeEndpoint& ep =
      add_named(compute_, "compute endpoint", name, name, loop_, auth_, sched);
  ep.set_tracer(recorder_);
  return ep;
}

fabric::StorageEndpoint& OspreyPlatform::storage_endpoint(
    const std::string& name) {
  return find_named(storage_, "storage endpoint", name);
}

const fabric::StorageEndpoint& OspreyPlatform::storage_endpoint(
    const std::string& name) const {
  return find_named(storage_, "storage endpoint", name);
}

fabric::ComputeEndpoint& OspreyPlatform::compute_endpoint(
    const std::string& name) {
  return find_named(compute_, "compute endpoint", name);
}

const fabric::ComputeEndpoint& OspreyPlatform::compute_endpoint(
    const std::string& name) const {
  return find_named(compute_, "compute endpoint", name);
}

fabric::BatchScheduler& OspreyPlatform::scheduler(const std::string& name) {
  return find_named(schedulers_, "scheduler", name);
}

void OspreyPlatform::install_fault_plan(fabric::FaultPlan* plan) {
  loop_.set_fault_plan(plan);
  auth_.set_fault_plan(plan, &loop_);
}

std::string OspreyPlatform::issue_token(const std::string& identity) {
  return auth_.issue_full_token(identity);
}

void OspreyPlatform::run_days(int days) {
  OSPREY_REQUIRE(days >= 0, "negative days");
  run_until(loop_.now() + days * osprey::util::kDay);
}

void OspreyPlatform::run_until(fabric::SimTime t) { loop_.run_until(t); }

}  // namespace osprey::aero
