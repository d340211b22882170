#ifndef TIP_ENGINE_EXEC_PLANNER_H_
#define TIP_ENGINE_EXEC_PLANNER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/catalog/aggregate_registry.h"
#include "engine/catalog/cast_registry.h"
#include "engine/catalog/catalog.h"
#include "engine/catalog/routine_registry.h"
#include "engine/exec/exec_node.h"
#include "engine/sql/ast.h"
#include "engine/types/type.h"

namespace tip::engine {

class ParallelStatsRegistry;

/// Everything the binder/planner needs from the database instance.
struct PlannerContext {
  const TypeRegistry* types = nullptr;
  const RoutineRegistry* routines = nullptr;
  const CastRegistry* casts = nullptr;
  const AggregateRegistry* aggregates = nullptr;
  Catalog* catalog = nullptr;
  /// Host parameters (`:name`); may be null when the statement has none.
  const std::map<std::string, Datum, std::less<>>* params = nullptr;
  /// Prepared-statement mode: when non-null, `:name` placeholders bind
  /// as late-bound ordinal slots (BoundParam) instead of folding the
  /// bound value in as a constant. `ctx.params` still supplies each
  /// parameter's planned type; `slot_names` accumulates the ordinal →
  /// name assignment in order of first use, and is retained by the
  /// prepared plan so executions can fill the slot vector without
  /// per-name map lookups on the hot path.
  std::vector<std::string>* param_slots = nullptr;
  /// Interval-key extractors per indexable type (registered by the
  /// DataBlade); used for index scans/joins and CREATE INDEX.
  const std::map<TypeId, IntervalKeyFn>* interval_key_fns = nullptr;

  // Session optimizer toggles (SET ... on the connection).
  bool enable_hash_join = true;
  bool enable_interval_join = true;

  // Parallel execution (SET parallel_workers). Parallel operators are
  // only planned with parallel_workers >= 2, over a table whose live
  // rows fill two morsels (kParallelMinRows), and only for the shapes
  // that pay: a filtered scan, a global aggregate and the interval
  // join. The default session runs the serial plans.
  size_t parallel_workers = 1;
  /// Session-owned per-table counters published by parallel operators
  /// and read back by EXPLAIN; may be null (no recording).
  ParallelStatsRegistry* parallel_stats = nullptr;
};

/// Name-resolution scope: the flattened columns of a FROM clause, with a
/// link to the enclosing query's scope for correlated subqueries.
class Scope {
 public:
  struct Binding {
    std::string table;   // binding name (alias or table), lower-case
    std::string column;  // lower-case
    TypeId type;
  };

  std::vector<Binding> bindings;
  const Scope* outer = nullptr;

  struct Resolution {
    size_t depth;
    size_t index;
    TypeId type;
  };

  /// Resolves `qualifier.name`, walking outward. Ambiguity within one
  /// scope level is an error; an inner hit shadows outer candidates.
  Result<Resolution> Resolve(std::string_view qualifier,
                             std::string_view name) const;
};

/// A fully planned SELECT: an executable tree plus the output schema.
struct PlannedSelect {
  ExecNodePtr root;
  std::vector<std::string> column_names;
  std::vector<TypeId> column_types;
};

/// Binds and plans a SELECT statement. `outer` is the enclosing scope
/// for correlated subqueries (null at top level).
Result<PlannedSelect> PlanSelect(const SelectStmt& select,
                                 const PlannerContext& ctx,
                                 const Scope* outer);

/// Binds a scalar expression with no FROM scope (INSERT values, SET
/// options, UPDATE right-hand sides use a single-table scope instead).
Result<BoundExprPtr> BindScalar(const Expr& expr, const PlannerContext& ctx,
                                const Scope* scope);

/// Coerces a bound expression to `target` (exact, or via an implicit
/// cast); TypeError when no coercion exists.
Result<BoundExprPtr> CoerceTo(BoundExprPtr expr, TypeId target,
                              const PlannerContext& ctx);

}  // namespace tip::engine

#endif  // TIP_ENGINE_EXEC_PLANNER_H_
