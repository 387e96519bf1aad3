// Clang Thread Safety Analysis macros.
//
// These wrap the `-Wthread-safety` attributes so concurrency invariants
// that used to live in comments ("Must hold mutex_") become declarations
// the compiler verifies: a `GUARDED_BY(mutex_)` member read without the
// mutex, or a `REQUIRES(mutex_)` helper called unlocked, is a build error
// under clang with `-Wthread-safety -Werror=thread-safety` (the CI
// `clang-thread-safety` job). Under GCC — which has no such analysis —
// every macro expands to nothing, so the annotations are zero-cost and the
// regular build is unchanged (tests/sync_test.cpp compiles this header
// under the default toolchain to prove it).
//
// libstdc++'s std::mutex is not annotated, so the analysis cannot see
// acquisitions through std::lock_guard / std::unique_lock. util/sync.h
// provides annotated drop-in primitives (util::Mutex, util::MutexLock,
// util::UniqueLock, util::CondVar) that the service and sim layers use
// instead; the macros below are what those wrappers and the annotated
// classes are built from.
//
// Naming follows the clang documentation (and Abseil): CAPABILITY on the
// lockable type, GUARDED_BY on data, REQUIRES on functions that need the
// lock held, ACQUIRE/RELEASE on functions that take/drop it, EXCLUDES on
// functions that must be called unlocked.
#pragma once

#if defined(__clang__)
#define MOBITHERM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MOBITHERM_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Declares a type to be a capability (e.g. a mutex). `x` names the
/// capability kind in diagnostics: CAPABILITY("mutex").
#define CAPABILITY(x) MOBITHERM_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define SCOPED_CAPABILITY MOBITHERM_THREAD_ANNOTATION(scoped_lockable)

/// The member may only be accessed while holding the given capability.
#define GUARDED_BY(x) MOBITHERM_THREAD_ANNOTATION(guarded_by(x))

/// The pointed-to data (not the pointer itself) is guarded.
#define PT_GUARDED_BY(x) MOBITHERM_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-order declaration: this capability must be acquired before/after
/// the listed ones (mobilint's lock-order-cycle rule derives the same
/// ordering from call sites; the attributes let clang check it locally too).
#define ACQUIRED_BEFORE(...) \
  MOBITHERM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  MOBITHERM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// The function may only be called while holding the given capabilities.
#define REQUIRES(...) \
  MOBITHERM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define ACQUIRE(...) \
  MOBITHERM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The function releases the capability (which must be held on entry).
#define RELEASE(...) \
  MOBITHERM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The function tries to acquire the capability; the first argument is the
/// return value meaning success.
#define TRY_ACQUIRE(...) \
  MOBITHERM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// The function must NOT be called while holding the given capabilities
/// (guards against self-deadlock on non-reentrant mutexes).
#define EXCLUDES(...) MOBITHERM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) MOBITHERM_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function body is not analyzed. Use only at sanctioned
/// boundaries with a comment saying why.
#define NO_THREAD_SAFETY_ANALYSIS \
  MOBITHERM_THREAD_ANNOTATION(no_thread_safety_analysis)
