#ifndef TIP_ENGINE_EXEC_ROW_UTILS_H_
#define TIP_ENGINE_EXEC_ROW_UTILS_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/exec/bound_expr.h"
#include "engine/types/datum.h"
#include "engine/types/eval_context.h"
#include "engine/types/type.h"

namespace tip::engine::exec_util {

/// Evaluates a predicate over `tuple`; NULL counts as false.
inline Result<bool> PredicatePasses(const BoundExpr& predicate,
                                    const TupleCtx& tuple,
                                    EvalContext& ctx) {
  Datum slot;
  TIP_ASSIGN_OR_RETURN(const Datum* v, predicate.Eval(tuple, ctx, &slot));
  return !v->is_null() && v->bool_value();
}

/// Evaluates `expr` over `tuple` into `*out`, a value the caller keeps
/// (a column of the row it builds): a computed value is written there
/// directly, a borrowed one is copied once. `*out` must not be part of
/// the tuple.
inline Status EvalInto(const BoundExpr& expr, const TupleCtx& tuple,
                       EvalContext& ctx, Datum* out) {
  TIP_ASSIGN_OR_RETURN(const Datum* v, expr.Eval(tuple, ctx, out));
  if (v != out) *out = *v;
  return Status::OK();
}

/// Combines per-column hashes the boost::hash_combine way.
inline uint64_t CombineHashes(uint64_t seed, uint64_t h) {
  return seed ^ (h + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2));
}

/// Hashes a list of values: a Row, or keys borrowed as DatumRefs.
template <typename Values>
Result<uint64_t> HashDatums(const Values& values, const TypeRegistry& types,
                            const TxContext& tx) {
  uint64_t seed = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    TIP_ASSIGN_OR_RETURN(uint64_t h, types.Hash(values[i], tx));
    seed = CombineHashes(seed, h);
  }
  return seed;
}

/// Row equality for grouping / DISTINCT: NULLs compare equal to NULLs
/// (SQL's "not distinct from" semantics used by GROUP BY). Either side
/// may be a Row or borrowed DatumRefs.
template <typename A, typename B>
Result<bool> DatumsEqual(const A& a, const B& b, const TypeRegistry& types,
                         const TxContext& tx) {
  assert(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const bool an = a[i].is_null(), bn = b[i].is_null();
    if (an || bn) {
      if (an != bn) return false;
      continue;
    }
    TIP_ASSIGN_OR_RETURN(int c, types.Compare(a[i], b[i], tx));
    if (c != 0) return false;
  }
  return true;
}

/// Approximate heap footprint of one materialized row, used for
/// statement memory accounting (ExecGuard::Reserve). Deliberately an
/// estimate — string bytes are exact, extension payloads are charged a
/// flat 64 bytes — because the budget protects against runaway
/// buffering, not byte-exact quotas.
inline size_t ApproxDatumBytes(const Datum& d) {
  size_t bytes = sizeof(Datum);
  if (d.is_null()) return bytes;
  if (d.type_id() == TypeId::kString) {
    bytes += d.string_value().size();
  } else if (IsExtensionType(d.type_id())) {
    bytes += 64;
  }
  return bytes;
}

inline size_t ApproxRowBytes(const Row& row) {
  size_t bytes = sizeof(Row);
  for (const Datum& d : row) bytes += ApproxDatumBytes(d);
  return bytes;
}

}  // namespace tip::engine::exec_util

#endif  // TIP_ENGINE_EXEC_ROW_UTILS_H_
