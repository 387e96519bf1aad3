// Annotated synchronization primitives for clang thread-safety analysis.
//
// Thin, zero-overhead wrappers over the std primitives that carry the
// util/thread_annotations.h attributes, so `-Wthread-safety` can track
// acquisitions through them (libstdc++'s own types are unannotated and
// invisible to the analysis):
//
//   util::Mutex       std::mutex as a CAPABILITY("mutex")
//   util::MutexLock   std::lock_guard as a SCOPED_CAPABILITY
//   util::UniqueLock  std::unique_lock as a SCOPED_CAPABILITY with
//                     mid-scope unlock()/lock() (the worker-loop pattern:
//                     drop the lock around the simulation, retake it to
//                     settle) — condition variables wait through it
//   util::CondVar     std::condition_variable over util::UniqueLock
//
// Every method is an inline forward; under GCC the annotation macros
// vanish and these compile to exactly the std types they wrap
// (tests/sync_test.cpp asserts the layout matches).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace mobitherm::util {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped std::mutex, for interop at unannotated boundaries.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// RAII lock for the plain hold-for-the-whole-scope case.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII lock that can be dropped and retaken mid-scope, and that CondVar
/// waits through. Starts locked; the destructor unlocks if still held.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) ACQUIRE(mutex) : lock_(mutex.native()) {}
  ~UniqueLock() RELEASE() {}  // std::unique_lock unlocks iff still held

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ACQUIRE() { lock_.lock(); }
  void unlock() RELEASE() { lock_.unlock(); }
  bool owns_lock() const { return lock_.owns_lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable over util::UniqueLock. Waits release and reacquire
/// the lock internally, so from the analysis's point of view the caller
/// holds it before and after — no annotations needed on the wait family.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(UniqueLock& lock) { cv_.wait(lock.lock_); }

  template <typename Predicate>
  void wait(UniqueLock& lock, Predicate pred) {
    cv_.wait(lock.lock_, std::move(pred));
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      UniqueLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& rel) {
    return cv_.wait_for(lock.lock_, rel);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace mobitherm::util
