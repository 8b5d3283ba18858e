#pragma once

/// \file timed_fs.hpp
/// TimedFs: a util::DurableFs decorator that times every call into the
/// filesystem it wraps and counts the bytes appended and written. The
/// WAL sees an ordinary DurableFs, so the AERO layer's disk cost is
/// measured from outside, at its public storage boundary.
///
/// Not thread-safe, like the filesystems it wraps: give each partition
/// its own instance (a partition runs on one shard thread at a time).

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/durable_fs.hpp"

namespace osprey::bench {

class TimedFs final : public osprey::util::DurableFs {
 public:
  explicit TimedFs(std::unique_ptr<osprey::util::DurableFs> inner)
      : inner_(std::move(inner)) {}

  void write(const std::string& path, const std::string& bytes) override {
    auto t0 = Clock::now();
    inner_->write(path, bytes);
    other_ns_ += since(t0);
    bytes_ += bytes.size();
  }
  void append(const std::string& path, const std::string& bytes) override {
    auto t0 = Clock::now();
    inner_->append(path, bytes);
    append_ns_.push_back(since(t0));
    bytes_ += bytes.size();
  }
  std::optional<std::string> read(const std::string& path) const override {
    return inner_->read(path);
  }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  void remove(const std::string& path) override { inner_->remove(path); }
  void sync() override {
    auto t0 = Clock::now();
    inner_->sync();
    sync_ns_.push_back(since(t0));
    ++syncs_;
  }

  /// Per-call durations (ns) of append() and sync().
  const std::vector<std::uint64_t>& append_ns() const { return append_ns_; }
  const std::vector<std::uint64_t>& sync_ns() const { return sync_ns_; }
  /// Total ns spent inside the wrapped filesystem's mutating calls.
  std::uint64_t busy_ns() const {
    std::uint64_t total = other_ns_;
    for (std::uint64_t ns : append_ns_) total += ns;
    for (std::uint64_t ns : sync_ns_) total += ns;
    return total;
  }
  std::uint64_t bytes() const { return bytes_; }

 private:
  using Clock = std::chrono::steady_clock;
  static std::uint64_t since(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  }

  std::unique_ptr<osprey::util::DurableFs> inner_;
  std::vector<std::uint64_t> append_ns_;
  std::vector<std::uint64_t> sync_ns_;
  std::uint64_t other_ns_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace osprey::bench
