#pragma once

/// \file task_api.hpp
/// The EMEWS task API as seen by a model-exploration algorithm:
/// submitting a task returns a Future immediately; the Future can be
/// polled ("checks for the completion of a single Future, ceding
/// control") or waited on. Mirrors the paper's R/Python task APIs.

#include <string>
#include <vector>

#include "emews/task_db.hpp"
#include "util/value.hpp"

namespace osprey::emews {

/// Handle for the asynchronous evaluation of one task.
class TaskFuture {
 public:
  TaskFuture() = default;
  TaskFuture(TaskDb* db, TaskId id) : db_(db), id_(id) {}

  bool valid() const { return db_ != nullptr; }
  TaskId id() const { return id_; }

  /// Non-blocking completion check.
  bool is_done() const;

  /// Block until done; returns the result value. Throws Error if the
  /// task failed or was cancelled.
  osprey::util::Value get() const;

  /// Full record (blocking until done).
  TaskRecord wait() const;

 private:
  TaskDb* db_ = nullptr;
  TaskId id_ = 0;
};

/// Client-side facade binding a task database and a task type: the
/// "EMEWS task queue" an ME algorithm talks to.
class TaskQueue {
 public:
  TaskQueue(TaskDb& db, std::string task_type);

  const std::string& task_type() const { return type_; }
  TaskDb& db() { return *db_; }

  /// Submit one task; returns its Future immediately.
  TaskFuture submit(osprey::util::Value payload, int priority = 0);

  /// Submit a batch (e.g. an initial experiment design).
  std::vector<TaskFuture> submit_batch(
      std::vector<osprey::util::Value> payloads, int priority = 0);

  /// Number of futures in `futures` that are done.
  static std::size_t count_done(const std::vector<TaskFuture>& futures);

 private:
  TaskDb* db_;
  std::string type_;
};

}  // namespace osprey::emews
