#include "core/platform.hpp"

#include "util/error.hpp"

namespace osprey::core {

OspreyPlatform::OspreyPlatform()
    : auth_(0xA117),
      timers_(loop_, auth_),
      transfers_(loop_, auth_),
      flows_(loop_, auth_),
      aero_(loop_, auth_, timers_, transfers_, flows_) {
  timers_.set_tracer(&tracer_);
  transfers_.set_tracer(&tracer_);
  flows_.set_tracer(&tracer_);
  aero_.set_tracer(&tracer_);
  task_db_.set_tracer(&tracer_);
}

fabric::StorageEndpoint& OspreyPlatform::add_storage_endpoint(
    const std::string& name) {
  OSPREY_REQUIRE(storage_.count(name) == 0,
                 "storage endpoint already exists: " + name);
  auto ep = std::make_unique<fabric::StorageEndpoint>(name, loop_, auth_);
  fabric::StorageEndpoint& ref = *ep;
  storage_.emplace(name, std::move(ep));
  return ref;
}

fabric::BatchScheduler& OspreyPlatform::add_scheduler(const std::string& name,
                                                      int nodes) {
  OSPREY_REQUIRE(schedulers_.count(name) == 0,
                 "scheduler already exists: " + name);
  auto s = std::make_unique<fabric::BatchScheduler>(loop_, nodes, name);
  fabric::BatchScheduler& ref = *s;
  ref.set_tracer(&tracer_);
  schedulers_.emplace(name, std::move(s));
  return ref;
}

fabric::ComputeEndpoint& OspreyPlatform::add_login_endpoint(
    const std::string& name, int slots) {
  OSPREY_REQUIRE(compute_.count(name) == 0,
                 "compute endpoint already exists: " + name);
  auto ep = std::make_unique<fabric::ComputeEndpoint>(name, loop_, auth_,
                                                      slots);
  fabric::ComputeEndpoint& ref = *ep;
  ref.set_tracer(&tracer_);
  compute_.emplace(name, std::move(ep));
  return ref;
}

fabric::ComputeEndpoint& OspreyPlatform::add_batch_endpoint(
    const std::string& name, fabric::BatchScheduler& sched) {
  OSPREY_REQUIRE(compute_.count(name) == 0,
                 "compute endpoint already exists: " + name);
  auto ep =
      std::make_unique<fabric::ComputeEndpoint>(name, loop_, auth_, sched);
  fabric::ComputeEndpoint& ref = *ep;
  ref.set_tracer(&tracer_);
  compute_.emplace(name, std::move(ep));
  return ref;
}

fabric::StorageEndpoint& OspreyPlatform::storage_endpoint(
    const std::string& name) {
  auto it = storage_.find(name);
  if (it == storage_.end()) {
    throw osprey::util::NotFound("no such storage endpoint: " + name);
  }
  return *it->second;
}

const fabric::StorageEndpoint& OspreyPlatform::storage_endpoint(
    const std::string& name) const {
  auto it = storage_.find(name);
  if (it == storage_.end()) {
    throw osprey::util::NotFound("no such storage endpoint: " + name);
  }
  return *it->second;
}

fabric::ComputeEndpoint& OspreyPlatform::compute_endpoint(
    const std::string& name) {
  auto it = compute_.find(name);
  if (it == compute_.end()) {
    throw osprey::util::NotFound("no such compute endpoint: " + name);
  }
  return *it->second;
}

fabric::BatchScheduler& OspreyPlatform::scheduler(const std::string& name) {
  auto it = schedulers_.find(name);
  if (it == schedulers_.end()) {
    throw osprey::util::NotFound("no such scheduler: " + name);
  }
  return *it->second;
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

}  // namespace osprey::core
