// Capability-annotated mutex primitives for the thread-safety lint lane.
//
// std::mutex from libstdc++ carries no capability attributes, so clang's
// thread-safety analysis cannot see it being locked; every GUARDED_BY
// annotation would be a false positive. These thin wrappers add the
// attributes (util/thread_annotations.h) without changing behavior: Mutex IS
// a std::mutex, MutexLock IS a lock_guard, CondVar IS a condition_variable
// that borrows the already-held Mutex through the adopt_lock/release trick.
// In the default (release) build zero state is added and every method inlines
// to the std call, so the concurrent paths (ThreadPool, RequestQueue,
// DecodeScheduler, ShardManager) pay nothing for being machine-checkable.
//
// Compiled with GLSC_DEBUG_LOCKS=1 (Debug/sanitizer/TSan trees), every
// Lock/Unlock additionally reports to the runtime lock-order checker
// (util/lock_checker.h): lock-order inversions, rank violations, and
// self-deadlocks abort with both acquisition stacks instead of hanging. The
// clang annotations enforce lock discipline at compile time where clang
// exists; the checker enforces lock ORDER at runtime everywhere — including
// the gcc-only primary container.
//
// A Mutex may carry a name and a rank (see lockrank in util/lock_checker.h)
// for better reports and eager rank checking:
//
//   Mutex mu_{"DecodeScheduler.mu", lockrank::kDecodeScheduler};
//
// Both are ignored (and cost nothing) when the checker is compiled out.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

#if defined(GLSC_DEBUG_LOCKS) && GLSC_DEBUG_LOCKS
#include "util/lock_checker.h"
#define GLSC_LOCKCHECK(call) ::glsc::lockcheck::call
#else
#define GLSC_LOCKCHECK(call) ((void)0)
#endif

namespace glsc {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() : Mutex(nullptr, 0) {}
  explicit Mutex(const char* name, int rank = 0) {
    (void)name;
    (void)rank;
    GLSC_LOCKCHECK(OnCreate(this, name, rank));
  }
  ~Mutex() { GLSC_LOCKCHECK(OnDestroy(this)); }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    // Checked BEFORE blocking so an inversion aborts with a report instead of
    // deadlocking the process.
    GLSC_LOCKCHECK(OnAcquire(this));
    mu_.lock();
  }
  void Unlock() RELEASE() {
    GLSC_LOCKCHECK(OnRelease(this));
    mu_.unlock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
    if (ok) GLSC_LOCKCHECK(OnTryAcquired(this));
    return ok;
  }

  // The underlying handle, for interop (CondVar). Callers must not lock it
  // directly — neither the clang analysis nor the lock-order checker can see
  // that.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// RAII lock over Mutex — the annotated std::lock_guard. Declared
// SCOPED_CAPABILITY so the analysis knows construction acquires and
// destruction releases.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable usable with Mutex. Wait* take the Mutex the caller
// already holds (REQUIRES), adopt it into a std::unique_lock for the wait,
// and release the unique_lock before returning so ownership stays with the
// caller's scope — exactly std::condition_variable semantics, visible to the
// analysis. The lock-order checker keeps the Mutex on the waiter's held list
// through the wait: the thread re-holds it whenever the predicate runs and
// when Wait returns, which is the invariant the checker models.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();  // the caller still holds mu
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace glsc
