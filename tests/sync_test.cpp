// Tests for util/sync.h + util/thread_annotations.h.
//
// Two jobs: (1) prove the annotation macros are true no-ops under the
// default (non-clang) toolchain — this file compiles annotated types with
// -Wall -Wextra and asserts the wrappers add no state over the std types
// they forward to; (2) exercise the wrappers' runtime behavior (mutual
// exclusion, mid-scope unlock/relock, condition-variable handoff) and the
// log sink swap that rides on them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/log.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace util = mobitherm::util;

namespace {

// ---------------------------------------------------------------------------
// Annotation macros are no-ops outside clang
// ---------------------------------------------------------------------------

// A struct using every macro must compile cleanly under GCC and carry no
// extra state. If a macro expanded to anything but an attribute (or
// nothing), this block would fail to parse.
class CAPABILITY("mutex") AnnotatedEverything {
 public:
  void lock() ACQUIRE() {}
  void unlock() RELEASE() {}
  bool try_lock() TRY_ACQUIRE(true) { return true; }
  void needs_lock() REQUIRES(*this) {}
  void needs_unlocked() EXCLUDES(*this) {}
  AnnotatedEverything& self() RETURN_CAPABILITY(*this) { return *this; }
  void opaque() NO_THREAD_SAFETY_ANALYSIS {}

  int counter GUARDED_BY(*this) = 0;
  int* slot PT_GUARDED_BY(*this) = nullptr;
};

#if !defined(__clang__)
// The macro must vanish entirely: stringifying an expansion site yields
// an empty token sequence.
#define MOBITHERM_STRINGIFY_IMPL(...) #__VA_ARGS__
#define MOBITHERM_STRINGIFY(...) MOBITHERM_STRINGIFY_IMPL(__VA_ARGS__)
static_assert(sizeof(MOBITHERM_STRINGIFY(GUARDED_BY(x))) == 1,
              "GUARDED_BY must expand to nothing outside clang");
static_assert(sizeof(MOBITHERM_STRINGIFY(REQUIRES(a, b))) == 1,
              "REQUIRES must expand to nothing outside clang");
static_assert(sizeof(MOBITHERM_STRINGIFY(NO_THREAD_SAFETY_ANALYSIS)) == 1,
              "NO_THREAD_SAFETY_ANALYSIS must expand to nothing");
#undef MOBITHERM_STRINGIFY
#undef MOBITHERM_STRINGIFY_IMPL
#endif

// Zero-overhead claim: the wrappers are layout-identical to what they wrap.
static_assert(sizeof(util::Mutex) == sizeof(std::mutex),
              "util::Mutex must add no state over std::mutex");
static_assert(sizeof(util::UniqueLock) ==
                  sizeof(std::unique_lock<std::mutex>),
              "util::UniqueLock must add no state over std::unique_lock");
static_assert(sizeof(util::CondVar) == sizeof(std::condition_variable),
              "util::CondVar must add no state over std::condition_variable");

TEST(ThreadAnnotationsTest, AnnotatedTypeBehavesNormally) {
  AnnotatedEverything a;
  a.lock();
  a.counter = 7;
  a.needs_lock();
  a.unlock();
  EXPECT_TRUE(a.try_lock());
  a.unlock();
  EXPECT_EQ(&a.self(), &a);
  EXPECT_EQ(a.counter, 7);
}

// ---------------------------------------------------------------------------
// Mutex / MutexLock
// ---------------------------------------------------------------------------

TEST(SyncTest, MutexProvidesMutualExclusion) {
  util::Mutex mutex;
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        util::MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, 4000);
}

TEST(SyncTest, TryLockReflectsContention) {
  util::Mutex mutex;
  EXPECT_TRUE(mutex.try_lock());
  // Same thread, non-recursive mutex: probe from another thread instead.
  std::thread probe([&] { EXPECT_FALSE(mutex.try_lock()); });
  probe.join();
  mutex.unlock();
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

// ---------------------------------------------------------------------------
// UniqueLock: mid-scope unlock/relock (the worker-loop pattern)
// ---------------------------------------------------------------------------

TEST(SyncTest, UniqueLockDropAndRetake) {
  util::Mutex mutex;
  util::UniqueLock lock(mutex);
  EXPECT_TRUE(lock.owns_lock());

  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  {
    // While dropped, another thread can take the mutex.
    std::atomic<bool> acquired{false};
    std::thread taker([&] {
      util::MutexLock inner(mutex);
      acquired.store(true);
    });
    taker.join();
    EXPECT_TRUE(acquired.load());
  }
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
}

// ---------------------------------------------------------------------------
// CondVar over UniqueLock
// ---------------------------------------------------------------------------

TEST(SyncTest, CondVarHandsOffThroughUniqueLock) {
  util::Mutex mutex;
  util::CondVar cv;
  bool ready = false;
  int observed = 0;

  std::thread consumer([&] {
    util::UniqueLock lock(mutex);
    cv.wait(lock, [&] { return ready; });
    observed = 42;
  });
  {
    util::UniqueLock lock(mutex);
    ready = true;
  }
  cv.notify_one();
  consumer.join();
  EXPECT_EQ(observed, 42);
}

TEST(SyncTest, CondVarWaitForTimesOut) {
  util::Mutex mutex;
  util::CondVar cv;
  util::UniqueLock lock(mutex);
  const auto status = cv.wait_for(lock, std::chrono::milliseconds(1));
  EXPECT_EQ(status, std::cv_status::timeout);
  EXPECT_TRUE(lock.owns_lock());  // reacquired after the timed wait
}

// ---------------------------------------------------------------------------
// Log sink swap (guarded by the annotated internal mutex)
// ---------------------------------------------------------------------------

TEST(SyncTest, LogSinkRedirectsAndResets) {
  std::FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);

  const util::LogLevel old_level = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  util::set_log_sink(capture);
  MOBITHERM_INFO("sink capture " << 123);
  util::set_log_sink(nullptr);  // back to stderr
  util::set_log_level(old_level);

  std::fflush(capture);
  std::rewind(capture);
  char buf[256] = {0};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, capture);
  std::fclose(capture);
  const std::string line(buf, n);
  EXPECT_NE(line.find("sink capture 123"), std::string::npos);
  EXPECT_NE(line.find("INFO"), std::string::npos);
}

TEST(SyncTest, ConcurrentLoggersNeverInterleaveLines) {
  std::FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  const util::LogLevel old_level = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  util::set_log_sink(capture);

  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        MOBITHERM_INFO("writer " << t << " line " << i << " tail");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  util::set_log_sink(nullptr);
  util::set_log_level(old_level);

  std::fflush(capture);
  std::rewind(capture);
  char buf[512];
  int lines = 0;
  while (std::fgets(buf, sizeof(buf), capture) != nullptr) {
    const std::string line(buf);
    // Every emitted line must be whole: prefix present, tail marker last.
    EXPECT_NE(line.find("[mobitherm"), std::string::npos);
    EXPECT_NE(line.find(" tail\n"), std::string::npos);
    ++lines;
  }
  std::fclose(capture);
  EXPECT_EQ(lines, 200);
}

}  // namespace
