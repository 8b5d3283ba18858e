#pragma once

/// \file mutex.hpp
/// Annotated mutual-exclusion primitives. std::mutex / std::lock_guard
/// carry no thread-safety-analysis attributes in libstdc++, so the
/// analysis cannot see their acquisitions; these thin wrappers add the
/// capability annotations while delegating all behaviour to the
/// standard library. Condition waits use std::condition_variable_any,
/// which accepts any BasicLockable — including the annotated MutexLock.

#include <condition_variable>
#include <mutex>

#include "util/annotations.hpp"

namespace osprey::util {

/// An annotated std::mutex. Use MutexLock for scoped acquisition; the
/// raw lock()/unlock() exist for the rare manual pattern.
class OSPREY_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() OSPREY_ACQUIRE() { m_.lock(); }
  void unlock() OSPREY_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// RAII lock over Mutex, annotated as a scoped capability. Also a
/// BasicLockable (lock()/unlock()), so std::condition_variable_any can
/// atomically release and reacquire it inside wait()/wait_for() — the
/// analysis sees the capability as held across the wait, which matches
/// the caller-visible contract.
class OSPREY_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) OSPREY_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() OSPREY_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// For condition_variable_any only; do not call directly.
  void lock() OSPREY_ACQUIRE() { mutex_.lock(); }
  void unlock() OSPREY_RELEASE() { mutex_.unlock(); }

 private:
  Mutex& mutex_;
};

/// Condition variable usable with MutexLock. wait()/wait_for() release
/// and reacquire through the annotated lock, so guarded state must be
/// re-checked after every return (use explicit while-loops rather than
/// predicate overloads: lambdas are analyzed as separate functions and
/// would trip guarded_by checks).
using CondVar = std::condition_variable_any;

}  // namespace osprey::util
