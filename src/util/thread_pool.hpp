#pragma once

/// \file thread_pool.hpp
/// A plain fixed-size thread pool with future-returning submission.
/// Used for genuinely parallel work: GP Monte-Carlo prediction, model
/// replicate evaluation, and the *work* phase of offloaded compute
/// functions (fabric::ComputeEndpoint::register_offloaded). The
/// simulated fabric itself never runs here: an offloaded task's prepare
/// and commit phases run on the event-loop thread, and only its pure
/// work runs on this pool, joined by the loop at the task's virtual
/// completion (ThreadPool::join).

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "util/channel.hpp"

namespace osprey::util {

class ThreadPool {
 public:
  /// Spawns `n_threads` workers (at least 1).
  explicit ThreadPool(std::size_t n_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  /// Submit a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    bool ok = queue_.push([task] { (*task)(); });
    if (!ok) {
      throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    return fut;
  }

  /// Run one queued task on the calling thread if one is immediately
  /// available. Returns false when the queue is momentarily empty or
  /// the pool is shutting down (distinguished via the channel's status
  /// API). Lets blocked submitters help drain the queue.
  bool try_run_one();

  /// Wait until `done` is ready. While it is not, the calling thread
  /// runs queued tasks (as parallel_for's caller does), so a join from
  /// outside the pool puts its core to use and never waits behind a
  /// queued task it could run itself. Does not call get().
  template <typename T>
  void join(const std::future<T>& done) {
    while (done.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!try_run_one()) {
        done.wait();
        return;
      }
    }
  }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// The calling thread participates as an extra worker while it waits,
  /// so a parallel_for issued from inside a pool task cannot deadlock
  /// even when every pool thread is busy.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  Channel<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
};

/// Parse an OSPREY_THREADS-style override. `env` is the raw variable
/// value (nullptr/empty = unset -> `fallback`). A strictly positive
/// integer (optionally whitespace-padded) is honored as-is; anything
/// else — "0", negatives, non-numeric, trailing garbage, overflow — is
/// clamped to 1 with a logged warning rather than silently misparsed.
std::size_t parse_thread_count(const char* env, std::size_t fallback);

/// Process-wide shared pool sized by the hardware concurrency (minimum
/// 1; override with the OSPREY_THREADS environment variable, validated
/// by parse_thread_count). Lives for the life of the process; intended
/// for deterministic data-parallel kernels (GP batch prediction, MLE
/// multistarts, per-plant MCMC fan-out) where spinning up a private
/// pool per call would dominate.
ThreadPool& global_pool();

}  // namespace osprey::util
