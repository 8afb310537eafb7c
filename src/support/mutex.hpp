#pragma once

#include <condition_variable>
#include <mutex>

#include "support/thread_annotations.hpp"

/// The repo's ONE mutex vocabulary: std::mutex / std::condition_variable
/// wrapped with thread-safety-analysis annotations so clang can prove the
/// locking discipline at compile time (see support/thread_annotations.hpp).
///
/// All locked code uses these types -- the repo linter (tools/lint_repo.py,
/// rule `raw-mutex`) rejects raw std::mutex / std::lock_guard /
/// std::condition_variable anywhere else, because the analysis cannot see
/// through them: a field can only be MALSCHED_GUARDED_BY a Mutex.
///
/// Deliberately minimal: exactly the primitives the concurrency layer needs
/// (exclusive lock, RAII guard, condition wait). No predicate-taking wait()
/// overload -- a predicate lambda is analyzed as a separate function with an
/// empty capability set, so guarded reads inside it would either warn or
/// need an escape hatch. Callers write the standard
/// `while (!cond) cv.wait(mutex);` loop instead, where every guarded read
/// sits in the locked scope the analysis can check.
///
/// LOCK HIERARCHY. The repo's intended lock ordering is declared here, in
/// the lint:lock-order(...) directives below, and enforced statically by
/// the linter's lock-order analysis (tools/lint/lock_order.py): it extracts
/// every LockGuard nesting and every call made under a held mutex (with
/// MALSCHED_REQUIRES counting as held), resolves mutex identity per class,
/// and fails CI with the witness path when the observed acquisition graph
/// has a cycle -- or when an observed ordering is not declared below, which
/// keeps this list the reviewed source of truth rather than an after-the-
/// fact inventory. Keys are `Class::member`; arrows read "may be held while
/// acquiring". Current hierarchy (one edge):
///
///   * SchedulerService::mutex_ -> WorkerPool::mutex_
///     enqueue_locked() posts the run_next trampoline to the worker pool
///     while holding the service state lock; WorkerPool::post takes the
///     pool's own queue lock to enqueue. The pool never calls back into the
///     service synchronously (worker lambdas run later, on pool threads),
///     so the edge is one-way by construction.
///
/// Everything else (SolveCache::mutex_, the instance-intern table, the
/// failpoint registry) is a leaf: taken with nothing else held.
///
// lint:lock-order(SchedulerService::mutex_ -> WorkerPool::mutex_)
namespace malsched {

class CondVar;

/// Exclusive capability over std::mutex. Same semantics, plus annotations.
class MALSCHED_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MALSCHED_ACQUIRE() { mutex_.lock(); }
  void unlock() MALSCHED_RELEASE() { mutex_.unlock(); }

  /// For negative-capability annotations (e.g. MALSCHED_REQUIRES(!mutex_)).
  const Mutex& operator!() const { return *this; }

 private:
  friend class CondVar;  ///< wait() needs the native handle to park on
  std::mutex mutex_;
};

/// RAII guard -- the std::lock_guard of this vocabulary. Scoped capability:
/// the analysis knows the mutex is held exactly from construction to the
/// closing brace.
class MALSCHED_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) MALSCHED_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() MALSCHED_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable paired with Mutex. wait() REQUIRES the mutex: it is
/// held on entry, released while parked, and held again on return -- from
/// the caller's (and the analysis') point of view the capability never
/// lapses, which is exactly the guarantee the guarded predicate loop needs.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// One blocking wait; spurious wakeups possible, so call in a
  /// `while (!predicate)` loop under the same LockGuard that guards the
  /// predicate's fields.
  void wait(Mutex& mutex) MALSCHED_REQUIRES(mutex) {
    // Adopt the already-held native mutex for the park, then release() so
    // ownership returns to the caller's guard -- the wrapper never unlocks
    // behind the caller's back. (If relocking after the park fails, the
    // standard terminates; there is no path that returns unlocked.)
    std::unique_lock<std::mutex> native(mutex.mutex_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace malsched
