#ifndef TIP_COMMON_EXEC_GUARD_H_
#define TIP_COMMON_EXEC_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace tip {

/// Session-lifetime counters of statement-lifecycle events, read back
/// through `tip_guard_stats()`. All fields are monotonically
/// increasing; writers are the statements themselves, so every field
/// is an atomic.
struct GuardEvents {
  std::atomic<uint64_t> timeouts{0};
  std::atomic<uint64_t> cancels{0};
  std::atomic<uint64_t> oom{0};
  std::atomic<uint64_t> parallel_fallbacks{0};
};

/// Per-statement resource guard: a deadline, a cooperative cancellation
/// flag, and a memory accountant, created by `Database::Execute` and
/// threaded to every operator through the EvalContext. Operators call
/// `Check()` at row/batch granularity and `Reserve()` when they buffer
/// data; a tripped guard makes every subsequent check fail with the
/// same Status, so the plan unwinds promptly through the normal error
/// path (no exceptions, no partial-state surprises).
///
/// Thread-safety: `Cancel()` may be called from any thread at any time
/// (the client API's thread-safe cancel); `Check()`/`Reserve()` may be
/// called concurrently by parallel workers. Setup calls (SetDeadline,
/// SetMemoryLimit, set_events) happen before execution starts.
class ExecGuard {
 public:
  using Clock = std::chrono::steady_clock;

  /// How many Check() calls may pass between two reads of the clock.
  /// The cancellation flag is consulted on *every* call; only the
  /// deadline comparison is amortized.
  static constexpr uint64_t kDeadlineStride = 128;

  ExecGuard() = default;
  ExecGuard(const ExecGuard&) = delete;
  ExecGuard& operator=(const ExecGuard&) = delete;

  /// Arms the deadline `timeout_ms` from now. 0 disables (the default).
  void SetTimeout(int64_t timeout_ms) {
    timeout_ms_ = timeout_ms;
    deadline_armed_ = timeout_ms > 0;
    if (deadline_armed_) {
      deadline_ = Clock::now() + std::chrono::milliseconds(timeout_ms);
    }
  }

  /// Arms the memory budget. 0 disables (the default).
  void SetMemoryLimit(size_t limit_bytes) { memory_limit_ = limit_bytes; }

  /// Points the guard at the session's event counters (may be null).
  void set_events(GuardEvents* events) { events_ = events; }

  /// Requests cancellation. Thread-safe; the statement aborts at its
  /// next cooperative check.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// The cooperative check, called once per row/batch. Fast path is one
  /// relaxed atomic load (cancel flag) plus, when a deadline is armed,
  /// one relaxed fetch_add with a clock read every kDeadlineStride
  /// calls.
  Status Check() {
    if (cancelled_.load(std::memory_order_relaxed)) return TripCancelled();
    if (deadline_armed_ &&
        (check_calls_.fetch_add(1, std::memory_order_relaxed) &
         (kDeadlineStride - 1)) == 0) {
      return CheckDeadline();
    }
    return Status::OK();
  }

  /// Like Check() but always consults the clock — the per-morsel /
  /// per-batch variant, so a timeout is detected within one quantum
  /// even if the stride has not elapsed.
  Status CheckNow() {
    if (cancelled_.load(std::memory_order_relaxed)) return TripCancelled();
    if (deadline_armed_) return CheckDeadline();
    return Status::OK();
  }

  /// Accounts `bytes` of statement-local buffering (sort/hash/result
  /// buffers). Fails with ResourceExhausted when the budget is
  /// exceeded; accounting is approximate by design (capacity
  /// estimates, not allocator hooks).
  Status Reserve(size_t bytes);

  /// Returns previously Reserve()d bytes (operators that free a buffer
  /// mid-statement; the final release at statement end is implicit in
  /// the guard's destruction).
  void Release(size_t bytes) {
    bytes_used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  size_t bytes_used() const {
    return bytes_used_.load(std::memory_order_relaxed);
  }
  size_t bytes_peak() const {
    return bytes_peak_.load(std::memory_order_relaxed);
  }
  size_t memory_limit() const { return memory_limit_; }

  /// Records that a parallel operator degraded to serial execution
  /// (saturated pool or failed worker).
  void RecordParallelFallback() {
    if (events_ != nullptr) {
      events_->parallel_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  Status TripCancelled();
  Status CheckDeadline();

  std::atomic<bool> cancelled_{false};
  std::atomic<uint64_t> check_calls_{0};

  bool deadline_armed_ = false;
  int64_t timeout_ms_ = 0;
  Clock::time_point deadline_{};

  size_t memory_limit_ = 0;  // 0 = unlimited
  std::atomic<size_t> bytes_used_{0};
  std::atomic<size_t> bytes_peak_{0};

  // Each terminal event is counted once per statement even though every
  // subsequent Check() keeps failing.
  std::atomic<bool> event_recorded_{false};
  GuardEvents* events_ = nullptr;
};

}  // namespace tip

#endif  // TIP_COMMON_EXEC_GUARD_H_
