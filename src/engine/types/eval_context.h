#ifndef TIP_ENGINE_TYPES_EVAL_CONTEXT_H_
#define TIP_ENGINE_TYPES_EVAL_CONTEXT_H_

#include <vector>

#include "common/exec_guard.h"
#include "common/status.h"
#include "core/tx_context.h"

namespace tip::engine {

class Datum;

/// Per-statement evaluation state threaded through every routine, cast
/// and aggregate invocation. The single most important field is the
/// transaction context: it fixes the interpretation of NOW for the whole
/// statement, so a query sees one consistent "current time" no matter how
/// many NOW-relative values it touches.
struct EvalContext {
  TxContext tx;

  /// The statement's lifecycle guard (timeout / cancel / memory budget),
  /// owned by Database::Execute. Null when evaluation happens outside a
  /// guarded statement (tests, internal index maintenance) — all guard
  /// helpers below degrade to no-ops then. Parallel workers building a
  /// private EvalContext must copy this pointer from the parent context.
  ExecGuard* guard = nullptr;

  /// Host-parameter values for this execution, indexed by the ordinal
  /// slots a SELECT's plan assigned at plan time (BoundParam reads
  /// them). Null for other statements, which fold `:name` placeholders
  /// into constants instead. Parallel workers building a private
  /// EvalContext must copy this pointer from the parent context.
  const std::vector<Datum>* params = nullptr;

  EvalContext() = default;
  explicit EvalContext(TxContext tx_ctx) : tx(tx_ctx) {}
  EvalContext(TxContext tx_ctx, ExecGuard* g) : tx(tx_ctx), guard(g) {}

  /// Cooperative per-row check. One relaxed atomic load when unguarded
  /// deadlines are not armed; see ExecGuard::Check.
  Status CheckGuard() {
    return guard != nullptr ? guard->Check() : Status::OK();
  }

  /// Per-morsel/batch check that always consults the clock.
  Status CheckGuardNow() {
    return guard != nullptr ? guard->CheckNow() : Status::OK();
  }

  /// Accounts statement-local buffering against the memory budget.
  Status ReserveMemory(size_t bytes) {
    return guard != nullptr ? guard->Reserve(bytes) : Status::OK();
  }
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_TYPES_EVAL_CONTEXT_H_
