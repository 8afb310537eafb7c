#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/mutex.hpp"

/// A persistent fixed-size thread pool with a FIFO task queue -- the one
/// pool the serving tier runs every request on.
///
/// WorkerPool keeps its threads for its whole lifetime, so a service that
/// accepts work continuously pays no thread churn per submission; tasks
/// posted from any thread run in post order (single FIFO queue, workers pull one task at
/// a time -- no per-worker deques, so dispatch order is deterministic even
/// though completion order is not).
///
/// Tasks must not throw (wrap solver dispatch in its own try/catch, the way
/// SchedulerService does); a task that throws anyway terminates via
/// noexcept, loudly, instead of poisoning an unrelated later task.
namespace malsched {

class WorkerPool {
 public:
  /// Starts `threads` workers (0 = hardware_concurrency, at least 1).
  explicit WorkerPool(unsigned threads = 0);

  /// Joins the workers (shutdown() if not already called).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues one task; throws std::runtime_error after shutdown().
  void post(std::function<void()> task) MALSCHED_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and no task is running. Tasks posted
  /// while waiting extend the wait (this is "idle", not a point-in-time
  /// barrier).
  void wait_idle() MALSCHED_EXCLUDES(mutex_);

  /// Stops the pool: currently-running tasks finish, queued-but-unstarted
  /// tasks are DISCARDED (callers that need every task observed must drain
  /// with wait_idle() first, or track their work externally the way
  /// SchedulerService tracks job slots), workers are joined. Idempotent and
  /// safe for concurrent callers (one of them performs the join; the others
  /// may return first). post() afterwards throws.
  void shutdown() MALSCHED_EXCLUDES(mutex_);

  /// Worker threads the pool was started with (fixed at construction).
  [[nodiscard]] unsigned threads() const noexcept { return thread_count_; }

  /// Queued-but-unstarted tasks (diagnostic; racy by nature).
  [[nodiscard]] std::size_t queued() const MALSCHED_EXCLUDES(mutex_);

  /// Index of the calling thread within its pool ([0, threads())), or -1
  /// when the caller is not a pool worker. Provenance for SolveOutcome:
  /// tasks read it to stamp which worker produced a result.
  [[nodiscard]] static int current_worker() noexcept;

 private:
  void worker_loop(unsigned index) noexcept MALSCHED_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  CondVar work_cv_;  ///< workers: "queue non-empty or stopping"
  CondVar idle_cv_;  ///< wait_idle: "queue empty and nothing running"
  std::deque<std::function<void()>> queue_ MALSCHED_GUARDED_BY(mutex_);
  std::size_t running_ MALSCHED_GUARDED_BY(mutex_){0};
  bool stopping_ MALSCHED_GUARDED_BY(mutex_){false};
  /// Fixed at construction, read without the lock; workers_ (the joinable
  /// handles) is claimed under the lock by exactly one shutdown() caller.
  unsigned thread_count_{0};
  std::vector<std::thread> workers_ MALSCHED_GUARDED_BY(mutex_);
};

}  // namespace malsched
