#include "emews/worker_pool.hpp"

#include <limits>

#include "util/log.hpp"

namespace osprey::emews {

namespace {

/// How long a worker blocks on the queue before re-checking its pool's
/// stop flag. Several pools may serve the same queue, so stopping must
/// not depend on in-band messages another pool could consume.
constexpr std::int64_t kClaimTimeoutMs = 25;

}  // namespace

WorkerPool::WorkerPool(TaskDb& db, std::string task_type, ModelFn model,
                       std::size_t n_workers, std::string pool_name,
                       osprey::util::RetryPolicy retry)
    : db_(db),
      type_(std::move(task_type)),
      model_(std::move(model)),
      name_(std::move(pool_name)),
      retry_(retry),
      busy_ns_(n_workers == 0 ? 1 : n_workers),
      task_counts_(n_workers == 0 ? 1 : n_workers),
      start_ns_(db.clock().now_ns()) {
  if (n_workers == 0) n_workers = 1;
  if (obs::TraceRecorder* tracer = db_.tracer()) {
    tracer->instant(obs::Category::kEmews, "pool-start:" + name_, start_ns_,
                    obs::kNoSpan,
                    std::to_string(n_workers) + " worker(s) on '" + type_ +
                        "'");
  }
  threads_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
  OSPREY_LOG_INFO("emews", "worker pool '" << name_ << "' started with "
                           << n_workers << " worker(s) on queue '" << type_
                           << "'");
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::worker_loop(std::size_t worker_index) {
  std::string worker_name =
      name_ + "/w" + std::to_string(worker_index);
  auto evaluate = [&](TaskId id) {
    TaskRecord rec = db_.snapshot(id);
    std::uint64_t t0 = now_ns();
    try {
      osprey::util::Value result = model_(rec.payload);
      db_.complete(id, std::move(result));
    } catch (const std::exception& e) {
      // Transient model/evaluation faults go back on the queue while
      // the retry budget lasts; any worker may pick the task up again.
      if (retry_.enabled() &&
          rec.requeues < static_cast<std::uint32_t>(retry_.max_attempts) &&
          db_.requeue(id)) {
        OSPREY_LOG_WARN("emews", worker_name << " requeued task " << id
                                 << " (attempt " << rec.requeues + 1
                                 << "): " << e.what());
      } else {
        db_.fail(id, e.what());
      }
    }
    std::uint64_t dt = now_ns() - t0;
    busy_ns_[worker_index].fetch_add(dt, std::memory_order_relaxed);
    task_counts_[worker_index].fetch_add(1, std::memory_order_relaxed);
    evaluated_.fetch_add(1, std::memory_order_relaxed);
  };

  while (true) {
    std::optional<TaskId> id =
        db_.claim_for(type_, worker_name, kClaimTimeoutMs);
    if (id.has_value()) {
      evaluate(*id);
      continue;
    }
    if (db_.closed()) break;
    if (stopping_.load(std::memory_order_acquire)) {
      // Drain-then-stop: finish whatever is still queued, then exit.
      while (auto leftover = db_.try_claim(type_, worker_name)) {
        evaluate(*leftover);
      }
      break;
    }
  }
}

void WorkerPool::shutdown() {
  // Hold the mutex across the join: a concurrent second shutdown()
  // blocks until the workers are actually stopped, then no-ops.
  osprey::util::MutexLock lock(join_mutex_);
  if (joined_) return;
  joined_ = true;
  stopping_.store(true, std::memory_order_release);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  end_ns_.store(now_ns());
  if (obs::TraceRecorder* tracer = db_.tracer()) {
    tracer->instant(obs::Category::kEmews, "pool-stop:" + name_,
                    end_ns_.load(), obs::kNoSpan,
                    std::to_string(evaluated_.load()) + " task(s) evaluated");
  }
  OSPREY_LOG_INFO("emews", "worker pool '" << name_ << "' stopped after "
                           << evaluated_.load() << " task(s)");
}

double WorkerPool::utilization() const {
  std::uint64_t end = end_ns_.load();
  if (end == 0) end = now_ns();
  double span = static_cast<double>(end - start_ns_) *
                static_cast<double>(threads_.size());
  if (span <= 0.0) return 0.0;
  double busy = 0.0;
  for (const auto& b : busy_ns_) {
    busy += static_cast<double>(b.load(std::memory_order_relaxed));
  }
  return busy / span;
}

std::vector<WorkerStats> WorkerPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(threads_.size());
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    WorkerStats s;
    s.name = name_ + "/w" + std::to_string(i);
    s.tasks_evaluated = task_counts_[i].load(std::memory_order_relaxed);
    s.busy_ns = busy_ns_[i].load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace osprey::emews
