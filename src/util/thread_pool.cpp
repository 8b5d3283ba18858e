#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/log.hpp"

namespace osprey::util {

ThreadPool::ThreadPool(std::size_t n_threads) {
  n_threads = std::max<std::size_t>(1, n_threads);
  threads_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    threads_.emplace_back([this] {
      while (auto task = queue_.pop()) {
        (*task)();
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  queue_.close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  if (queue_.try_pop_status(task) != ChannelStatus::kItem) return false;
  task();
  return true;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Chunk by worker count; an atomic cursor balances uneven chunks.
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  std::size_t n_workers = std::min(n, threads_.size());
  std::vector<std::future<void>> futs;
  futs.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    futs.push_back(submit([cursor, n, &fn] {
      while (true) {
        std::size_t i = cursor->fetch_add(1);
        if (i >= n) break;
        fn(i);
      }
    }));
  }
  // The caller works the same cursor instead of blocking straight away.
  while (true) {
    std::size_t i = cursor->fetch_add(1);
    if (i >= n) break;
    fn(i);
  }
  // While chunk tasks are still running on workers, keep draining the
  // queue (they may be queued behind unrelated submissions).
  for (auto& f : futs) {
    join(f);
    f.get();
  }
}

std::size_t parse_thread_count(const char* env, std::size_t fallback) {
  if (env == nullptr) return fallback;
  const char* p = env;
  while (std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (*p == '\0') return fallback;  // unset/blank: no override intended
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(p, &end, 10);
  bool overflow = errno == ERANGE;
  while (end != nullptr && std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  bool fully_consumed = end != nullptr && *end == '\0' && end != p;
  if (fully_consumed && !overflow && v > 0) {
    return static_cast<std::size_t>(v);
  }
  OSPREY_LOG_WARN("util", "OSPREY_THREADS='" << env
                          << "' is not a positive integer; using 1 thread");
  return 1;
}

ThreadPool& global_pool() {
  static ThreadPool pool(parse_thread_count(
      std::getenv("OSPREY_THREADS"),
      static_cast<std::size_t>(
          std::max(1u, std::thread::hardware_concurrency()))));
  return pool;
}

}  // namespace osprey::util
