#pragma once

/// \file worker_pool.hpp
/// An EMEWS worker pool: a set of worker threads on a compute resource
/// that "retrieve and evaluate tasks submitted to the task database,
/// e.g. ... run models where the tasks' data are model input
/// parameters". Per-worker busy-time accounting backs the utilization
/// comparison of interleaved vs sequential ME instances (§3.2).
///
/// All timestamps come from the task database's injected util::Clock,
/// so a SimClock-driven run produces replayable utilization numbers.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "emews/task_db.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/retry.hpp"
#include "util/value.hpp"

namespace osprey::emews {

/// The model a pool evaluates: payload in, result out. Exceptions mark
/// the task failed.
using ModelFn = std::function<osprey::util::Value(const osprey::util::Value&)>;

struct WorkerStats {
  std::string name;
  std::uint64_t tasks_evaluated = 0;
  std::uint64_t busy_ns = 0;
};

class WorkerPool {
 public:
  /// Starts `n_workers` threads immediately; they claim tasks of
  /// `task_type` from `db` until shutdown() (or db.close()).
  /// When `retry.enabled()`, a task whose model throws is requeued (up
  /// to retry.max_attempts times, tracked in TaskRecord::requeues)
  /// instead of failed — any worker may pick up the requeued task.
  WorkerPool(TaskDb& db, std::string task_type, ModelFn model,
             std::size_t n_workers, std::string pool_name = "pool",
             osprey::util::RetryPolicy retry = {});

  /// Stops and joins all workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  const std::string& name() const { return name_; }

  /// Drain remaining queued tasks, then stop and join all workers.
  /// Implemented with a stop flag + timed claims (not in-band poison
  /// messages), so multiple pools can safely serve one queue. Safe to
  /// call multiple times and from multiple threads (the join handoff is
  /// serialized by an internal mutex).
  void shutdown();

  /// Pool-lifetime utilization: busy worker-time / (workers × wall time
  /// from construction until shutdown (or now, while running)).
  double utilization() const;

  std::uint64_t tasks_evaluated() const { return evaluated_.load(); }
  std::vector<WorkerStats> worker_stats() const;

 private:
  void worker_loop(std::size_t worker_index);
  std::uint64_t now_ns() const { return db_.clock().now_ns(); }

  TaskDb& db_;
  std::string type_;
  ModelFn model_;
  std::string name_;
  osprey::util::RetryPolicy retry_;
  std::vector<std::atomic<std::uint64_t>> busy_ns_;     // per worker
  std::vector<std::atomic<std::uint64_t>> task_counts_; // per worker
  // WorkerPool models a compute resource and so legitimately owns raw
  // threads, like util::ThreadPool. osprey-lint: allow(raw-thread)
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> evaluated_{0};
  std::uint64_t start_ns_ = 0;
  std::atomic<std::uint64_t> end_ns_{0};  // set at shutdown
  osprey::util::Mutex join_mutex_;
  bool joined_ OSPREY_GUARDED_BY(join_mutex_) = false;
};

}  // namespace osprey::emews
