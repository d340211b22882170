#ifndef TIP_COMMON_THREAD_POOL_H_
#define TIP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace tip {

/// A lazily grown pool of worker threads for intra-query parallelism.
/// Threads are spawned on demand up to `max_threads` and live until the
/// pool is destroyed, so repeated parallel queries do not pay a
/// thread-start per morsel batch.
///
/// The only execution primitive is the fork-join `RunOnWorkers`: the
/// caller participates as worker 0 and the call does not return until
/// every worker body has finished, which keeps lifetime reasoning
/// simple (captured references outlive all workers by construction).
/// A body invoked on a pool thread that itself calls `RunOnWorkers`
/// runs its sub-bodies inline — nested parallelism degrades to serial
/// instead of deadlocking on a saturated pool.
class ThreadPool {
 public:
  explicit ThreadPool(size_t max_threads = DefaultMaxThreads());

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all worker threads. No RunOnWorkers call may be in flight.
  ~ThreadPool();

  /// Runs `body(w)` once for each worker index w in [0, workers):
  /// worker 0 on the calling thread, the rest on pool threads. Blocks
  /// until all bodies complete — every body runs to its own completion
  /// even when another has already failed (bodies that want to stop
  /// early share a flag, as the parallel operators do).
  ///
  /// Error contract: the returned Status is the first error by worker
  /// index — a body's non-OK Status, or Internal("worker exception:
  /// ...") when a body throws (the exception is captured, never
  /// propagated into the pool thread). OK only when every body
  /// returned OK. `body` must be safe to invoke concurrently from
  /// multiple threads.
  Status RunOnWorkers(size_t workers,
                      const std::function<Status(size_t)>& body);

  size_t max_threads() const { return max_threads_; }

  /// Approximate number of pool workers a new RunOnWorkers call could
  /// put to work right now: capacity not currently running or queued.
  /// Racy by nature (other statements submit concurrently) — callers
  /// use it as a planning hint to degrade to serial under saturation,
  /// never for correctness.
  size_t ApproxAvailable() const;

  /// True when the calling thread is one of this process's pool
  /// workers (any pool): used to serialize nested parallelism.
  static bool OnWorkerThread();

  /// hardware_concurrency, but at least 8 so scaling experiments can
  /// oversubscribe small machines deterministically.
  static size_t DefaultMaxThreads();

  /// The machine's core count (hardware_concurrency, at least 1), read
  /// once: the default cap on a statement's workers, and a bound on
  /// them whatever the cap.
  static size_t CoreCount();

  /// The process-wide pool shared by query execution. Never destroyed
  /// (intentionally leaked) so worker threads cannot race static
  /// destruction at exit.
  static ThreadPool& Shared();

 private:
  /// Enqueues `task`, growing the pool if needed. If the pool cannot
  /// dispatch (thread creation fails, or the "threadpool.dispatch"
  /// fault point fires), the task runs inline on the caller — slower
  /// but never lost.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  const size_t max_threads_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t idle_ = 0;
  bool stopping_ = false;
};

}  // namespace tip

#endif  // TIP_COMMON_THREAD_POOL_H_
