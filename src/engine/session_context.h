#ifndef TIP_ENGINE_SESSION_CONTEXT_H_
#define TIP_ENGINE_SESSION_CONTEXT_H_

// Per-session execution state (DESIGN.md section 13).
//
// PR 9 gave every remote session its own NOW override and resource
// budgets by *swapping* them into global Database fields while the
// session held the server's exclusive execution gate. A shared gate
// breaks that trick: two readers run at once, so the state they
// ground against must travel with the statement instead of living in
// the engine singleton. SessionContext is that vehicle. The server
// owns one per connection; the embedded client and C API use the
// Database's built-in global session so their single-threaded
// behaviour is unchanged.
//
// Locking: `now`, `txn_pin` and `txn_mark` are guarded by
// Database::session_mu_ (one mutex for all sessions — these fields
// are touched once per statement, not per row). The resource knobs
// are atomics because guard arming and `tip_server_stats` polls read
// them from other threads without taking the session lock.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>

#include "common/thread_pool.h"
#include "core/chronon.h"
#include "core/tx_context.h"

namespace tip::engine {

struct SessionContext {
  SessionContext() = default;
  SessionContext(const SessionContext&) = delete;
  SessionContext& operator=(const SessionContext&) = delete;

  // --- Guarded by Database::session_mu_ ---------------------------------
  // SET NOW override: statements ground NOW-relative values here.
  std::optional<Chronon> now;
  // Set between BEGIN and COMMIT/ROLLBACK: every statement in the
  // transaction reuses this grounding, so NOW is stable for the whole
  // transaction. Many sessions may hold read-only pins concurrently;
  // only one of them (the writer-slot owner) may ever mutate tables.
  std::optional<TxContext> txn_pin;

  // Thread that opened the transaction. The txn error contract
  // auto-aborts on fatal statement failures, but only when the
  // failing statement ran on the owning thread — a reader racing on
  // another thread must not roll back this session's transaction.
  std::atomic<std::thread::id> txn_thread{};

  // --- Atomics (read cross-thread without session_mu_) ------------------
  std::atomic<int64_t> statement_timeout_ms{0};
  std::atomic<size_t> memory_limit_kb{0};
  // The cap on a statement's parallel workers (SET parallel_workers);
  // 1 plans the serial operators.
  std::atomic<size_t> parallel_workers{ThreadPool::CoreCount()};
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_SESSION_CONTEXT_H_
