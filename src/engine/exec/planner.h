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
  /// Set when planning a SELECT: `:name` placeholders bind as
  /// late-bound ordinal slots (BoundParam). Null for DML and EXPLAIN,
  /// planned per execution, which fold the bound value in as a constant.
  /// `ctx.params` still supplies each parameter's planned type;
  /// `slot_names` accumulates the ordinal → name assignment in order of
  /// first use, and is retained by the prepared plan so executions can
  /// fill the slot vector without per-name map lookups on the hot path.
  std::vector<std::string>* param_slots = nullptr;
  /// Interval-key extractors per indexable type (registered by the
  /// DataBlade); used for index scans/joins and CREATE INDEX.
  const std::map<TypeId, IntervalKeyFn>* interval_key_fns = nullptr;

  // Session optimizer toggles (SET ... on the connection).
  bool enable_hash_join = true;
  bool enable_interval_join = true;

  // Parallel execution (SET parallel_workers): the cap on a
  // statement's workers. With a cap of 2 or more the planner plans the
  // morsel operators for the shapes that pay (a filtered scan, a global
  // aggregate and the interval join), except where PlanSelect keeps a
  // select serial; each run picks its own worker count (see
  // MorselNode). A cap of 1 plans the serial operators.
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

/// True when `expr`, or a subquery in it, calls a routine marked
/// serial_only: a scan that evaluates it must not run on worker
/// threads.
bool CallsSerialOnlyRoutine(const Expr& expr, const RoutineRegistry& routines);

/// True when any clause of `select`, its derived tables, subqueries and
/// compound parts included, calls a serial_only routine.
bool CallsSerialOnlyRoutine(const SelectStmt& select,
                            const RoutineRegistry& routines);

/// True when `expr` holds a subquery, whose plan serves one execution
/// at a time and so cannot be evaluated by several workers.
bool HasSubquery(const Expr& expr);

/// Binds and plans a SELECT statement. `outer` is the enclosing scope
/// for correlated subqueries (null at top level). A subquery, a select
/// whose LIMIT may stop its reader early and a select that calls a
/// serial_only routine are planned at a cap of 1 (serial operators).
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
