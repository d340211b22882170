#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/fault_injection.h"

namespace tip {

namespace {

thread_local bool t_on_worker_thread = false;

/// Runs one worker body, converting any escaping exception into a
/// Status. Pool threads must never unwind past the task boundary, and
/// the fork-join contract is that a failing worker reports through its
/// status slot rather than taking the process down.
Status RunBody(const std::function<Status(size_t)>& body, size_t w) {
  try {
    return body(w);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("worker exception: ") + e.what());
  } catch (...) {
    return Status::Internal("worker exception: unknown");
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t max_threads)
    : max_threads_(std::max<size_t>(max_threads, 1)) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::OnWorkerThread() { return t_on_worker_thread; }

size_t ThreadPool::DefaultMaxThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(hw, 8);
}

size_t ThreadPool::CoreCount() {
  static const size_t cores =
      std::max<unsigned>(std::thread::hardware_concurrency(), 1);
  return cores;
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: pool threads must never outlive their pool, and
  // static destruction order at exit cannot guarantee that for a
  // process-wide singleton used from other static-lifetime objects.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

size_t ThreadPool::ApproxAvailable() const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t busy = (threads_.size() - idle_) + queue_.size();
  return busy >= max_threads_ ? 0 : max_threads_ - busy;
}

void ThreadPool::Submit(std::function<void()> task) {
  if (!fault::MaybeFail("threadpool.dispatch").ok()) {
    // Simulated dispatch failure (and the real thread-creation failure
    // below) degrade to inline execution: the fork-join still
    // completes, just without the parallelism.
    task();
    return;
  }
  std::function<void()> inline_task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    // Grow only when no idle worker can pick the task up.
    if (idle_ == 0 && threads_.size() < max_threads_) {
      try {
        threads_.emplace_back([this] { WorkerLoop(); });
      } catch (const std::system_error&) {
        // Thread creation failed (resource exhaustion). If no existing
        // worker will ever drain the queue, reclaim the task and run it
        // inline after dropping the lock.
        if (threads_.empty()) {
          inline_task = std::move(queue_.back());
          queue_.pop_back();
        }
      }
    }
  }
  if (inline_task) {
    inline_task();
    return;
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_on_worker_thread = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    while (queue_.empty() && !stopping_) {
      ++idle_;
      cv_.wait(lock);
      --idle_;
    }
    if (queue_.empty()) return;  // stopping_
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

Status ThreadPool::RunOnWorkers(size_t workers,
                                const std::function<Status(size_t)>& body) {
  const size_t n = std::max<size_t>(workers, 1);
  if (n == 1 || t_on_worker_thread) {
    // Nested fork-join (a parallel node inside a correlated subplan
    // already running on a pool thread) executes inline: correct,
    // deadlock-free, and the outer fan-out keeps all threads busy.
    Status first;
    for (size_t w = 0; w < n; ++w) {
      Status s = RunBody(body, w);
      if (first.ok() && !s.ok()) first = std::move(s);
    }
    return first;
  }

  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    size_t pending;
  };
  auto join = std::make_shared<Join>();
  join->pending = n - 1;

  // One slot per worker so the reported error is deterministic (lowest
  // worker index) regardless of completion order.
  std::vector<Status> statuses(n);
  for (size_t w = 1; w < n; ++w) {
    // `body` and `statuses` are captured by reference: RunOnWorkers
    // blocks until every task signals completion, so they cannot
    // dangle.
    Submit([join, &body, &statuses, w] {
      statuses[w] = RunBody(body, w);
      {
        std::lock_guard<std::mutex> lock(join->mu);
        --join->pending;
      }
      join->cv.notify_one();
    });
  }
  statuses[0] = RunBody(body, 0);
  {
    std::unique_lock<std::mutex> lock(join->mu);
    join->cv.wait(lock, [&] { return join->pending == 0; });
  }
  for (Status& s : statuses) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

}  // namespace tip
