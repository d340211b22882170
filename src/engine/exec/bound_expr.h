#ifndef TIP_ENGINE_EXEC_BOUND_EXPR_H_
#define TIP_ENGINE_EXEC_BOUND_EXPR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/catalog/cast_registry.h"
#include "engine/catalog/routine_registry.h"
#include "engine/types/datum.h"
#include "engine/types/eval_context.h"
#include "engine/types/type.h"

namespace tip::engine {

class ExecNode;

/// The tuple a bound expression evaluates against, as a chain of scopes:
/// `row` is the current operator's combined row; `outer` points at the
/// enclosing query's tuple for correlated subqueries.
struct TupleCtx {
  const Row* row = nullptr;
  const TupleCtx* outer = nullptr;
};

/// A type-checked, name-resolved expression. Produced by the binder;
/// evaluated by the executors. Evaluation is side-effect free.
///
/// Values are borrowed, as rows are: Eval returns a pointer to the
/// value rather than a copy. A column points into the tuple's row, a
/// parameter into the execution's parameter vector, a constant into the
/// node; a computed node writes its result into `*slot`, which the
/// caller provides, and may use that slot as scratch for an operand
/// while it runs. The pointer stays valid until the caller changes
/// `*slot` or the tuple. Callers that keep a value copy it from the
/// pointer, or move it out when the pointer is their own slot.
///
/// Nodes keep no scratch state of their own: every slot lives on the
/// caller's stack. So one tree can be shared by parallel workers and
/// reused across executions of a cached plan. (A subquery node's subplan
/// keeps its operators' per-execution state; the planner never pushes a
/// subquery into an expression that workers evaluate.)
class BoundExpr {
 public:
  explicit BoundExpr(TypeId type) : type_(type) {}
  virtual ~BoundExpr() = default;

  BoundExpr(const BoundExpr&) = delete;
  BoundExpr& operator=(const BoundExpr&) = delete;

  TypeId type() const { return type_; }

  virtual Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                                    Datum* slot) const = 0;

 private:
  TypeId type_;
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// A constant value (literals, pre-resolved parameters).
class BoundConstant final : public BoundExpr {
 public:
  explicit BoundConstant(Datum value)
      : BoundExpr(value.type_id()), value_(std::move(value)) {}

  Result<const Datum*> Eval(const TupleCtx&, EvalContext&,
                            Datum*) const override {
    return &value_;
  }

 private:
  Datum value_;
};

/// A late-bound host parameter (`:name`), resolved at plan time to an
/// ordinal slot in the per-execution parameter vector
/// (EvalContext::params). Unlike BoundConstant — into which statements
/// planned per execution (DML, EXPLAIN) fold the bound value — the slot
/// is read afresh on every evaluation, so a SELECT's plan can be
/// re-executed under new bindings of the same types without replanning.
class BoundParam final : public BoundExpr {
 public:
  BoundParam(TypeId type, size_t slot, std::string name)
      : BoundExpr(type), slot_(slot), name_(std::move(name)) {}

  Result<const Datum*> Eval(const TupleCtx&, EvalContext& ctx,
                            Datum*) const override {
    if (ctx.params == nullptr || slot_ >= ctx.params->size()) {
      return Status::Internal("parameter :" + name_ +
                              " has no value bound for this execution");
    }
    return &(*ctx.params)[slot_];
  }

  size_t slot() const { return slot_; }
  const std::string& name() const { return name_; }

 private:
  size_t slot_;
  std::string name_;  // for error messages only
};

/// A column of the tuple `depth` scopes out (0 = the current scope).
class BoundColumn final : public BoundExpr {
 public:
  BoundColumn(TypeId type, size_t depth, size_t index)
      : BoundExpr(type), depth_(depth), index_(index) {}

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

  size_t depth() const { return depth_; }
  size_t index() const { return index_; }

 private:
  size_t depth_;
  size_t index_;
};

/// A call to a resolved routine overload; SQL NULL strictness and
/// argument casts are applied here. The arguments reach the routine
/// borrowed: each is evaluated into a slot of an array on the stack
/// (`kInlineArgs` wide; only wider calls, which SQL functions can make,
/// use the heap).
class BoundRoutineCall final : public BoundExpr {
 public:
  static constexpr size_t kInlineArgs = 4;

  BoundRoutineCall(const Routine* routine, std::vector<BoundExprPtr> args)
      : BoundExpr(routine->result),
        routine_(routine),
        args_(std::move(args)) {}

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

  const Routine& routine() const { return *routine_; }

 private:
  const Routine* routine_;
  std::vector<BoundExprPtr> args_;
};

/// Application of a registered cast. NULL casts to NULL.
class BoundCast final : public BoundExpr {
 public:
  BoundCast(const Cast* cast, BoundExprPtr operand)
      : BoundExpr(cast->to), cast_(cast), operand_(std::move(operand)) {}

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

 private:
  const Cast* cast_;
  BoundExprPtr operand_;
};

/// Generic ordering comparison through TypeOps::compare; used whenever
/// no routine overload claims the operator. Implements the SQL
/// comparison operators with three-valued NULL semantics.
class BoundCompare final : public BoundExpr {
 public:
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };

  BoundCompare(Op op, BoundExprPtr lhs, BoundExprPtr rhs,
               const TypeRegistry* types)
      : BoundExpr(TypeId::kBool),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)),
        types_(types) {}

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

 private:
  Op op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
  const TypeRegistry* types_;
};

/// Three-valued AND / OR.
class BoundLogical final : public BoundExpr {
 public:
  enum class Op { kAnd, kOr };

  BoundLogical(Op op, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(TypeId::kBool),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

 private:
  Op op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

/// Three-valued NOT.
class BoundNot final : public BoundExpr {
 public:
  explicit BoundNot(BoundExprPtr operand)
      : BoundExpr(TypeId::kBool), operand_(std::move(operand)) {}

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

 private:
  BoundExprPtr operand_;
};

/// IS [NOT] NULL. Never returns NULL itself.
class BoundIsNull final : public BoundExpr {
 public:
  BoundIsNull(BoundExprPtr operand, bool negated)
      : BoundExpr(TypeId::kBool),
        operand_(std::move(operand)),
        negated_(negated) {}

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

 private:
  BoundExprPtr operand_;
  bool negated_;
};

/// Searched CASE: WHEN cond THEN value ... [ELSE value].
class BoundCase final : public BoundExpr {
 public:
  BoundCase(TypeId result_type, std::vector<BoundExprPtr> whens,
            std::vector<BoundExprPtr> thens, BoundExprPtr else_expr)
      : BoundExpr(result_type),
        whens_(std::move(whens)),
        thens_(std::move(thens)),
        else_(std::move(else_expr)) {}

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

 private:
  std::vector<BoundExprPtr> whens_;
  std::vector<BoundExprPtr> thens_;
  BoundExprPtr else_;  // may be null (=> NULL)
};

/// [NOT] EXISTS (subquery). Owns the correlated subplan and runs it to
/// the first row on every evaluation.
class BoundExists final : public BoundExpr {
 public:
  BoundExists(std::unique_ptr<ExecNode> subplan, bool negated);
  ~BoundExists() override;

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

 private:
  std::unique_ptr<ExecNode> subplan_;
  bool negated_;
};

/// A scalar subquery: one output column, at most one row (more is a
/// runtime error), empty yields NULL. Re-runs per evaluation when
/// correlated.
class BoundScalarSubquery final : public BoundExpr {
 public:
  BoundScalarSubquery(TypeId type, std::unique_ptr<ExecNode> subplan);
  ~BoundScalarSubquery() override;

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

 private:
  std::unique_ptr<ExecNode> subplan_;
};

/// `operand [NOT] IN (SELECT ...)` with SQL's three-valued semantics:
/// a NULL operand, or a non-match against a subquery that produced a
/// NULL, yields NULL.
class BoundInSubquery final : public BoundExpr {
 public:
  BoundInSubquery(BoundExprPtr operand, std::unique_ptr<ExecNode> subplan,
                  bool negated, const TypeRegistry* types);
  ~BoundInSubquery() override;

  Result<const Datum*> Eval(const TupleCtx& tuple, EvalContext& ctx,
                            Datum* slot) const override;

 private:
  BoundExprPtr operand_;
  std::unique_ptr<ExecNode> subplan_;
  bool negated_;
  const TypeRegistry* types_;
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_EXEC_BOUND_EXPR_H_
