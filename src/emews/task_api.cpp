#include "emews/task_api.hpp"

#include "util/error.hpp"

namespace osprey::emews {

bool TaskFuture::is_done() const {
  OSPREY_REQUIRE(valid(), "is_done() on an invalid future");
  return db_->is_done(id_);
}

osprey::util::Value TaskFuture::get() const {
  TaskRecord rec = wait();
  if (rec.status == TaskStatus::kComplete) return rec.result;
  throw osprey::util::Error("task " + std::to_string(id_) + " " +
                            task_status_name(rec.status) +
                            (rec.error.empty() ? "" : ": " + rec.error));
}

TaskRecord TaskFuture::wait() const {
  OSPREY_REQUIRE(valid(), "wait() on an invalid future");
  return db_->wait(id_);
}

TaskQueue::TaskQueue(TaskDb& db, std::string task_type)
    : db_(&db), type_(std::move(task_type)) {}

TaskFuture TaskQueue::submit(osprey::util::Value payload, int priority) {
  TaskId id = db_->submit(type_, std::move(payload), priority);
  return TaskFuture(db_, id);
}

std::vector<TaskFuture> TaskQueue::submit_batch(
    std::vector<osprey::util::Value> payloads, int priority) {
  std::vector<TaskFuture> out;
  out.reserve(payloads.size());
  for (auto& p : payloads) {
    out.push_back(submit(std::move(p), priority));
  }
  return out;
}

std::size_t TaskQueue::count_done(const std::vector<TaskFuture>& futures) {
  std::size_t n = 0;
  for (const TaskFuture& f : futures) {
    if (f.is_done()) ++n;
  }
  return n;
}

}  // namespace osprey::emews
