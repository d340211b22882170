#include "engine/exec/planner.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/string_util.h"
#include "engine/exec/parallel_exec.h"

namespace tip::engine {

namespace {

// ---------------------------------------------------------------------------
// AST utilities
// ---------------------------------------------------------------------------

// Structural equality of untyped expressions, used to match SELECT-list
// subexpressions against GROUP BY expressions and to deduplicate
// aggregate calls. Case-insensitive on names.
bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kLiteral:
      if (a.literal_kind != b.literal_kind) return false;
      switch (a.literal_kind) {
        case LiteralKind::kNull:
          return true;
        case LiteralKind::kBool:
          return a.bool_value == b.bool_value;
        case LiteralKind::kInt:
          return a.int_value == b.int_value;
        case LiteralKind::kFloat:
          return a.double_value == b.double_value;
        case LiteralKind::kString:
          return a.text == b.text;
      }
      return false;
    case ExprKind::kColumnRef:
      return EqualsIgnoreCase(a.qualifier, b.qualifier) &&
             EqualsIgnoreCase(a.text, b.text);
    case ExprKind::kStar:
      return EqualsIgnoreCase(a.qualifier, b.qualifier);
    case ExprKind::kParam:
      return a.text == b.text;
    case ExprKind::kExists:
    case ExprKind::kScalarSubquery:
    case ExprKind::kInSubquery:
      return false;  // subqueries never compare equal structurally
    default:
      break;
  }
  if (!EqualsIgnoreCase(a.text, b.text) || a.negated != b.negated ||
      a.has_else != b.has_else || a.args.size() != b.args.size()) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!ExprEquals(*a.args[i], *b.args[i])) return false;
  }
  return true;
}

// Static facts about an expression needed for predicate placement.
struct ExprInfo {
  std::set<size_t> local_tables;  // positions within the local FROM list
  bool has_subquery = false;
  bool has_aggregate = false;
};

// ---------------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------------

// A structural rewrite rule: occurrences of `pattern` become column
// `index` (of type `type`) of the current row — how SELECT/HAVING
// expressions are re-bound over an AggregateNode's output.
struct Replacement {
  const Expr* pattern;
  size_t index;
  TypeId type;
};

class ExprBinder {
 public:
  ExprBinder(const PlannerContext& ctx, const Scope* scope)
      : ctx_(ctx), scope_(scope) {}

  /// Enables grouped mode: `replacements` map group expressions and
  /// aggregate calls to output columns; raw local column references
  /// outside them become errors.
  void SetReplacements(const std::vector<Replacement>* replacements) {
    replacements_ = replacements;
  }

  Result<BoundExprPtr> Bind(const Expr& expr);

 private:
  Result<BoundExprPtr> BindColumnRef(const Expr& expr);
  Result<BoundExprPtr> BindFuncCall(const Expr& expr);
  Result<BoundExprPtr> BindBinary(const Expr& expr);
  Result<BoundExprPtr> BindUnary(const Expr& expr);
  Result<BoundExprPtr> BindCast(const Expr& expr);
  Result<BoundExprPtr> BindBetween(const Expr& expr);
  Result<BoundExprPtr> BindInList(const Expr& expr);
  Result<BoundExprPtr> BindCase(const Expr& expr);
  Result<BoundExprPtr> BindExists(const Expr& expr);
  Result<BoundExprPtr> BindScalarSubquery(const Expr& expr);
  Result<BoundExprPtr> BindInSubquery(const Expr& expr);

  Result<BoundExprPtr> BindRoutine(std::string_view name,
                                   std::vector<BoundExprPtr> args);
  /// Builds `lhs op rhs` through the generic compare path, reconciling
  /// operand types through implicit casts.
  Result<BoundExprPtr> BindComparison(BoundCompare::Op op, BoundExprPtr lhs,
                                      BoundExprPtr rhs);
  Status RequireBoolean(const BoundExpr& e, std::string_view where);

  const PlannerContext& ctx_;
  const Scope* scope_;
  const std::vector<Replacement>* replacements_ = nullptr;
};

Result<BoundExprPtr> CoerceToImpl(BoundExprPtr expr, TypeId target,
                                  const PlannerContext& ctx) {
  if (expr->type() == target || expr->type() == TypeId::kNull) {
    return expr;
  }
  const Cast* cast = ctx.casts->Find(expr->type(), target,
                                     /*require_implicit=*/true);
  if (cast == nullptr) {
    return Status::TypeError("cannot coerce value of type '" +
                             ctx.types->Get(expr->type()).name + "' to '" +
                             ctx.types->Get(target).name + "'");
  }
  return BoundExprPtr(new BoundCast(cast, std::move(expr)));
}

Result<BoundExprPtr> ExprBinder::Bind(const Expr& expr) {
  if (replacements_ != nullptr) {
    for (const Replacement& r : *replacements_) {
      if (ExprEquals(*r.pattern, expr)) {
        return BoundExprPtr(new BoundColumn(r.type, 0, r.index));
      }
    }
  }
  switch (expr.kind) {
    case ExprKind::kLiteral:
      switch (expr.literal_kind) {
        case LiteralKind::kNull:
          return BoundExprPtr(new BoundConstant(Datum::Null()));
        case LiteralKind::kBool:
          return BoundExprPtr(new BoundConstant(
              Datum::Bool(expr.bool_value)));
        case LiteralKind::kInt:
          return BoundExprPtr(new BoundConstant(Datum::Int(expr.int_value)));
        case LiteralKind::kFloat:
          return BoundExprPtr(new BoundConstant(
              Datum::Double(expr.double_value)));
        case LiteralKind::kString:
          return BoundExprPtr(new BoundConstant(Datum::String(expr.text)));
      }
      return Status::Internal("unknown literal kind");
    case ExprKind::kParam: {
      if (ctx_.params == nullptr) {
        return Status::InvalidArgument("statement has no bound parameters "
                                       "but references :" + expr.text);
      }
      auto it = ctx_.params->find(expr.text);
      if (it == ctx_.params->end()) {
        return Status::InvalidArgument("unbound parameter :" + expr.text);
      }
      if (ctx_.param_slots != nullptr) {
        // Prepared mode: assign (or reuse) an ordinal slot and leave
        // the value to be supplied per execution. The plan is typed
        // under the binding present at plan time; a later rebind with a
        // different type gets its own plan variant.
        std::vector<std::string>& names = *ctx_.param_slots;
        size_t slot = names.size();
        for (size_t i = 0; i < names.size(); ++i) {
          if (names[i] == expr.text) {
            slot = i;
            break;
          }
        }
        if (slot == names.size()) names.push_back(expr.text);
        return BoundExprPtr(
            new BoundParam(it->second.type_id(), slot, expr.text));
      }
      return BoundExprPtr(new BoundConstant(it->second));
    }
    case ExprKind::kColumnRef:
      return BindColumnRef(expr);
    case ExprKind::kStar:
      return Status::InvalidArgument(
          "'*' is only valid in the select list and COUNT(*)");
    case ExprKind::kFuncCall:
      return BindFuncCall(expr);
    case ExprKind::kBinary:
      return BindBinary(expr);
    case ExprKind::kUnary:
      return BindUnary(expr);
    case ExprKind::kCast:
      return BindCast(expr);
    case ExprKind::kIsNull: {
      TIP_ASSIGN_OR_RETURN(BoundExprPtr operand, Bind(*expr.args[0]));
      return BoundExprPtr(new BoundIsNull(std::move(operand), expr.negated));
    }
    case ExprKind::kBetween:
      return BindBetween(expr);
    case ExprKind::kInList:
      return BindInList(expr);
    case ExprKind::kCase:
      return BindCase(expr);
    case ExprKind::kExists:
      return BindExists(expr);
    case ExprKind::kScalarSubquery:
      return BindScalarSubquery(expr);
    case ExprKind::kInSubquery:
      return BindInSubquery(expr);
  }
  return Status::Internal("unknown expression kind");
}

Result<BoundExprPtr> ExprBinder::BindColumnRef(const Expr& expr) {
  TIP_ASSIGN_OR_RETURN(Scope::Resolution res,
                       scope_->Resolve(expr.qualifier, expr.text));
  if (replacements_ != nullptr && res.depth == 0) {
    return Status::TypeError(
        "column '" + expr.text +
        "' must appear in GROUP BY or inside an aggregate");
  }
  return BoundExprPtr(new BoundColumn(res.type, res.depth, res.index));
}

Result<BoundExprPtr> ExprBinder::BindFuncCall(const Expr& expr) {
  if (ctx_.aggregates->Exists(expr.text) &&
      !ctx_.routines->Exists(expr.text)) {
    return Status::TypeError("aggregate '" + ToLowerAscii(expr.text) +
                             "' is not allowed here");
  }
  std::vector<BoundExprPtr> args;
  args.reserve(expr.args.size());
  for (const ExprPtr& arg : expr.args) {
    TIP_ASSIGN_OR_RETURN(BoundExprPtr bound, Bind(*arg));
    args.push_back(std::move(bound));
  }
  return BindRoutine(expr.text, std::move(args));
}

Result<BoundExprPtr> ExprBinder::BindRoutine(std::string_view name,
                                             std::vector<BoundExprPtr> args) {
  std::vector<TypeId> arg_types;
  arg_types.reserve(args.size());
  for (const BoundExprPtr& arg : args) arg_types.push_back(arg->type());
  TIP_ASSIGN_OR_RETURN(ResolvedRoutine resolved,
                       ctx_.routines->Resolve(name, arg_types, *ctx_.casts,
                                              ctx_.types));
  for (size_t i = 0; i < args.size(); ++i) {
    if (resolved.arg_casts[i] != nullptr) {
      args[i] = BoundExprPtr(
          new BoundCast(resolved.arg_casts[i], std::move(args[i])));
    }
  }
  return BoundExprPtr(new BoundRoutineCall(resolved.routine,
                                           std::move(args)));
}

Status ExprBinder::RequireBoolean(const BoundExpr& e,
                                  std::string_view where) {
  if (e.type() != TypeId::kBool && e.type() != TypeId::kNull) {
    return Status::TypeError(std::string(where) +
                             " requires a BOOLEAN operand, not '" +
                             ctx_.types->Get(e.type()).name + "'");
  }
  return Status::OK();
}

Result<BoundExprPtr> ExprBinder::BindComparison(BoundCompare::Op op,
                                                BoundExprPtr lhs,
                                                BoundExprPtr rhs) {
  if (lhs->type() != rhs->type() && lhs->type() != TypeId::kNull &&
      rhs->type() != TypeId::kNull) {
    // Reconcile through a single implicit cast; prefer widening the
    // right operand to the left's type.
    const Cast* r2l = ctx_.casts->Find(rhs->type(), lhs->type(),
                                       /*require_implicit=*/true);
    const Cast* l2r = ctx_.casts->Find(lhs->type(), rhs->type(),
                                       /*require_implicit=*/true);
    if (r2l != nullptr) {
      rhs = BoundExprPtr(new BoundCast(r2l, std::move(rhs)));
    } else if (l2r != nullptr) {
      lhs = BoundExprPtr(new BoundCast(l2r, std::move(lhs)));
    } else {
      return Status::TypeError("cannot compare values of type '" +
                               ctx_.types->Get(lhs->type()).name +
                               "' and '" +
                               ctx_.types->Get(rhs->type()).name + "'");
    }
  }
  const TypeId value_type =
      lhs->type() != TypeId::kNull ? lhs->type() : rhs->type();
  if (value_type != TypeId::kNull && !ctx_.types->IsComparable(value_type)) {
    return Status::TypeError("type '" + ctx_.types->Get(value_type).name +
                             "' does not support comparison");
  }
  return BoundExprPtr(
      new BoundCompare(op, std::move(lhs), std::move(rhs), ctx_.types));
}

Result<BoundExprPtr> ExprBinder::BindBinary(const Expr& expr) {
  const std::string op = ToLowerAscii(expr.text);
  TIP_ASSIGN_OR_RETURN(BoundExprPtr lhs, Bind(*expr.args[0]));
  TIP_ASSIGN_OR_RETURN(BoundExprPtr rhs, Bind(*expr.args[1]));

  if (op == "and" || op == "or") {
    TIP_RETURN_IF_ERROR(RequireBoolean(*lhs, op == "and" ? "AND" : "OR"));
    TIP_RETURN_IF_ERROR(RequireBoolean(*rhs, op == "and" ? "AND" : "OR"));
    return BoundExprPtr(new BoundLogical(op == "and"
                                             ? BoundLogical::Op::kAnd
                                             : BoundLogical::Op::kOr,
                                         std::move(lhs), std::move(rhs)));
  }
  if (op == "=") {
    return BindComparison(BoundCompare::Op::kEq, std::move(lhs),
                          std::move(rhs));
  }
  if (op == "<>") {
    return BindComparison(BoundCompare::Op::kNe, std::move(lhs),
                          std::move(rhs));
  }
  if (op == "<") {
    return BindComparison(BoundCompare::Op::kLt, std::move(lhs),
                          std::move(rhs));
  }
  if (op == "<=") {
    return BindComparison(BoundCompare::Op::kLe, std::move(lhs),
                          std::move(rhs));
  }
  if (op == ">") {
    return BindComparison(BoundCompare::Op::kGt, std::move(lhs),
                          std::move(rhs));
  }
  if (op == ">=") {
    return BindComparison(BoundCompare::Op::kGe, std::move(lhs),
                          std::move(rhs));
  }
  // Arithmetic and concatenation resolve through the routine catalog —
  // this is where DataBlade operator overloads take effect, and where
  // `Chronon + Chronon` becomes the type error the paper promises.
  std::vector<BoundExprPtr> args;
  args.push_back(std::move(lhs));
  args.push_back(std::move(rhs));
  return BindRoutine(op, std::move(args));
}

Result<BoundExprPtr> ExprBinder::BindUnary(const Expr& expr) {
  const std::string op = ToLowerAscii(expr.text);
  TIP_ASSIGN_OR_RETURN(BoundExprPtr operand, Bind(*expr.args[0]));
  if (op == "not") {
    TIP_RETURN_IF_ERROR(RequireBoolean(*operand, "NOT"));
    return BoundExprPtr(new BoundNot(std::move(operand)));
  }
  assert(op == "-");
  std::vector<BoundExprPtr> args;
  args.push_back(std::move(operand));
  return BindRoutine("neg", std::move(args));
}

Result<BoundExprPtr> ExprBinder::BindCast(const Expr& expr) {
  TIP_ASSIGN_OR_RETURN(TypeId target, ctx_.types->FindByName(expr.text));
  TIP_ASSIGN_OR_RETURN(BoundExprPtr operand, Bind(*expr.args[0]));
  if (operand->type() == target) return operand;
  if (operand->type() == TypeId::kNull) {
    return BoundExprPtr(new BoundConstant(Datum::NullOf(target)));
  }
  const Cast* cast = ctx_.casts->Find(operand->type(), target,
                                      /*require_implicit=*/false);
  if (cast == nullptr) {
    return Status::TypeError("no cast from '" +
                             ctx_.types->Get(operand->type()).name +
                             "' to '" + ctx_.types->Get(target).name + "'");
  }
  return BoundExprPtr(new BoundCast(cast, std::move(operand)));
}

Result<BoundExprPtr> ExprBinder::BindBetween(const Expr& expr) {
  // a BETWEEN lo AND hi  ==>  a >= lo AND a <= hi (operand bound twice;
  // binding is pure so this is safe).
  TIP_ASSIGN_OR_RETURN(BoundExprPtr a1, Bind(*expr.args[0]));
  TIP_ASSIGN_OR_RETURN(BoundExprPtr lo, Bind(*expr.args[1]));
  TIP_ASSIGN_OR_RETURN(BoundExprPtr a2, Bind(*expr.args[0]));
  TIP_ASSIGN_OR_RETURN(BoundExprPtr hi, Bind(*expr.args[2]));
  TIP_ASSIGN_OR_RETURN(BoundExprPtr ge,
                       BindComparison(BoundCompare::Op::kGe, std::move(a1),
                                      std::move(lo)));
  TIP_ASSIGN_OR_RETURN(BoundExprPtr le,
                       BindComparison(BoundCompare::Op::kLe, std::move(a2),
                                      std::move(hi)));
  BoundExprPtr both(new BoundLogical(BoundLogical::Op::kAnd, std::move(ge),
                                     std::move(le)));
  if (expr.negated) return BoundExprPtr(new BoundNot(std::move(both)));
  return both;
}

Result<BoundExprPtr> ExprBinder::BindInList(const Expr& expr) {
  // a IN (x, y) ==> a = x OR a = y, with SQL's three-valued semantics
  // falling out of the OR chain.
  BoundExprPtr chain;
  for (size_t i = 1; i < expr.args.size(); ++i) {
    TIP_ASSIGN_OR_RETURN(BoundExprPtr a, Bind(*expr.args[0]));
    TIP_ASSIGN_OR_RETURN(BoundExprPtr item, Bind(*expr.args[i]));
    TIP_ASSIGN_OR_RETURN(BoundExprPtr eq,
                         BindComparison(BoundCompare::Op::kEq, std::move(a),
                                        std::move(item)));
    if (chain == nullptr) {
      chain = std::move(eq);
    } else {
      chain = BoundExprPtr(new BoundLogical(BoundLogical::Op::kOr,
                                            std::move(chain), std::move(eq)));
    }
  }
  if (chain == nullptr) {
    return Status::InvalidArgument("IN list must not be empty");
  }
  if (expr.negated) return BoundExprPtr(new BoundNot(std::move(chain)));
  return chain;
}

Result<BoundExprPtr> ExprBinder::BindCase(const Expr& expr) {
  const size_t pairs = expr.args.size() / 2;
  std::vector<BoundExprPtr> whens;
  std::vector<BoundExprPtr> thens;
  BoundExprPtr else_expr;
  TypeId result_type = TypeId::kNull;
  for (size_t i = 0; i < pairs; ++i) {
    TIP_ASSIGN_OR_RETURN(BoundExprPtr when, Bind(*expr.args[2 * i]));
    TIP_RETURN_IF_ERROR(RequireBoolean(*when, "CASE WHEN"));
    TIP_ASSIGN_OR_RETURN(BoundExprPtr then, Bind(*expr.args[2 * i + 1]));
    if (result_type == TypeId::kNull) result_type = then->type();
    whens.push_back(std::move(when));
    thens.push_back(std::move(then));
  }
  if (expr.has_else) {
    TIP_ASSIGN_OR_RETURN(else_expr, Bind(*expr.args.back()));
    if (result_type == TypeId::kNull) result_type = else_expr->type();
  }
  // Coerce all result branches to the common type.
  if (result_type != TypeId::kNull) {
    for (BoundExprPtr& then : thens) {
      TIP_ASSIGN_OR_RETURN(then,
                           CoerceToImpl(std::move(then), result_type, ctx_));
    }
    if (else_expr != nullptr) {
      TIP_ASSIGN_OR_RETURN(
          else_expr, CoerceToImpl(std::move(else_expr), result_type, ctx_));
    }
  }
  return BoundExprPtr(new BoundCase(result_type, std::move(whens),
                                    std::move(thens), std::move(else_expr)));
}

Result<BoundExprPtr> ExprBinder::BindExists(const Expr& expr) {
  TIP_ASSIGN_OR_RETURN(PlannedSelect sub,
                       PlanSelect(*expr.subquery, ctx_, scope_));
  return BoundExprPtr(new BoundExists(std::move(sub.root), expr.negated));
}

Result<BoundExprPtr> ExprBinder::BindScalarSubquery(const Expr& expr) {
  TIP_ASSIGN_OR_RETURN(PlannedSelect sub,
                       PlanSelect(*expr.subquery, ctx_, scope_));
  if (sub.column_types.size() != 1) {
    return Status::TypeError("scalar subquery must return exactly one "
                             "column");
  }
  return BoundExprPtr(new BoundScalarSubquery(sub.column_types[0],
                                              std::move(sub.root)));
}

Result<BoundExprPtr> ExprBinder::BindInSubquery(const Expr& expr) {
  TIP_ASSIGN_OR_RETURN(BoundExprPtr operand, Bind(*expr.args[0]));
  TIP_ASSIGN_OR_RETURN(PlannedSelect sub,
                       PlanSelect(*expr.subquery, ctx_, scope_));
  if (sub.column_types.size() != 1) {
    return Status::TypeError("IN subquery must return exactly one column");
  }
  // Reconcile the operand with the subquery's column type.
  TIP_ASSIGN_OR_RETURN(
      operand, CoerceToImpl(std::move(operand), sub.column_types[0], ctx_));
  return BoundExprPtr(new BoundInSubquery(std::move(operand),
                                          std::move(sub.root),
                                          expr.negated, ctx_.types));
}

// ---------------------------------------------------------------------------
// Static analysis for predicate placement
// ---------------------------------------------------------------------------

// Maps flattened column positions back to FROM-item positions.
struct FromLayout {
  /// Base table per FROM position; nullptr for derived tables.
  std::vector<const Table*> tables;
  std::vector<size_t> offsets;  // column offset of each table
  size_t total_columns = 0;

  size_t TableOfColumn(size_t column) const {
    for (size_t i = tables.size(); i-- > 0;) {
      if (column >= offsets[i]) return i;
    }
    return 0;
  }
};

Status CollectInfo(const Expr& expr, const Scope& scope,
                   const FromLayout& layout,
                   const AggregateRegistry& aggregates, ExprInfo* info) {
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      TIP_ASSIGN_OR_RETURN(Scope::Resolution res,
                           scope.Resolve(expr.qualifier, expr.text));
      if (res.depth == 0) {
        info->local_tables.insert(layout.TableOfColumn(res.index));
      }
      return Status::OK();
    }
    case ExprKind::kExists:
    case ExprKind::kScalarSubquery:
    case ExprKind::kInSubquery:
      // Correlated subqueries may reference any local table; treat them
      // as depending on all of them so they are never pushed down.
      // (kInSubquery's operand needs no separate walk: the whole
      // conjunct is pinned to the top filter anyway.)
      info->has_subquery = true;
      for (size_t i = 0; i < layout.tables.size(); ++i) {
        info->local_tables.insert(i);
      }
      return Status::OK();
    case ExprKind::kFuncCall:
      if (aggregates.Exists(expr.text)) info->has_aggregate = true;
      break;
    default:
      break;
  }
  for (const ExprPtr& arg : expr.args) {
    TIP_RETURN_IF_ERROR(
        CollectInfo(*arg, scope, layout, aggregates, info));
  }
  return Status::OK();
}

}  // namespace

bool CallsSerialOnlyRoutine(const Expr& expr,
                            const RoutineRegistry& routines) {
  if (expr.kind == ExprKind::kFuncCall && routines.SerialOnly(expr.text)) {
    return true;
  }
  for (const ExprPtr& arg : expr.args) {
    if (CallsSerialOnlyRoutine(*arg, routines)) return true;
  }
  return expr.subquery != nullptr &&
         CallsSerialOnlyRoutine(*expr.subquery, routines);
}

bool CallsSerialOnlyRoutine(const SelectStmt& select,
                            const RoutineRegistry& routines) {
  auto calls = [&routines](const ExprPtr& expr) {
    return expr != nullptr && CallsSerialOnlyRoutine(*expr, routines);
  };
  for (const SelectItem& item : select.items) {
    if (calls(item.expr)) return true;
  }
  for (const FromItem& item : select.from) {
    if (calls(item.on)) return true;
    if (item.ref.is_subquery() &&
        CallsSerialOnlyRoutine(*item.ref.subquery, routines)) {
      return true;
    }
  }
  if (calls(select.where) || calls(select.having)) return true;
  for (const ExprPtr& expr : select.group_by) {
    if (calls(expr)) return true;
  }
  for (const CompoundPart& part : select.compounds) {
    if (CallsSerialOnlyRoutine(*part.select, routines)) return true;
  }
  for (const OrderItem& item : select.order_by) {
    if (calls(item.expr)) return true;
  }
  return false;
}

bool HasSubquery(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kExists:
    case ExprKind::kScalarSubquery:
    case ExprKind::kInSubquery:
      return true;
    default:
      break;
  }
  for (const ExprPtr& arg : expr.args) {
    if (HasSubquery(*arg)) return true;
  }
  return false;
}

namespace {

// Splits a predicate into its top-level AND conjuncts.
void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary &&
      EqualsIgnoreCase(expr->text, "and")) {
    SplitConjuncts(expr->args[0].get(), out);
    SplitConjuncts(expr->args[1].get(), out);
    return;
  }
  out->push_back(expr);
}

// Collects aggregate calls (outermost only) from an expression tree.
// Duplicate calls (structurally equal) collapse to one slot.
Status CollectAggregates(const Expr& expr,
                         const AggregateRegistry& aggregates,
                         std::vector<const Expr*>* out) {
  if (expr.kind == ExprKind::kFuncCall && aggregates.Exists(expr.text)) {
    // Aggregates must not nest.
    for (const ExprPtr& arg : expr.args) {
      std::vector<const Expr*> nested;
      TIP_RETURN_IF_ERROR(CollectAggregates(*arg, aggregates, &nested));
      if (!nested.empty()) {
        return Status::TypeError("aggregate calls cannot be nested");
      }
    }
    for (const Expr* existing : *out) {
      if (ExprEquals(*existing, expr)) return Status::OK();
    }
    out->push_back(&expr);
    return Status::OK();
  }
  for (const ExprPtr& arg : expr.args) {
    TIP_RETURN_IF_ERROR(CollectAggregates(*arg, aggregates, out));
  }
  return Status::OK();
}

// Derives an output column name from an expression.
std::string DeriveName(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      return ToLowerAscii(expr.text);
    case ExprKind::kFuncCall:
      return ToLowerAscii(expr.text);
    case ExprKind::kCast:
      return DeriveName(*expr.args[0]);
    default:
      return "?column?";
  }
}

// ---------------------------------------------------------------------------
// Join-tree construction
// ---------------------------------------------------------------------------

struct Conjunct {
  const Expr* expr;
  ExprInfo info;
  bool placed = false;

  bool OnlyTables(const std::set<size_t>& allowed) const {
    for (size_t t : info.local_tables) {
      if (allowed.find(t) == allowed.end()) return false;
    }
    return true;
  }
  bool References(size_t table) const {
    return info.local_tables.count(table) > 0;
  }
};

BoundExprPtr AndTogether(std::vector<BoundExprPtr> preds) {
  BoundExprPtr out;
  for (BoundExprPtr& p : preds) {
    if (out == nullptr) {
      out = std::move(p);
    } else {
      out = BoundExprPtr(new BoundLogical(BoundLogical::Op::kAnd,
                                          std::move(out), std::move(p)));
    }
  }
  return out;
}

/// Builds the plan for one SELECT. Owns all transient binding state.
class SelectPlanner {
 public:
  /// `core_only` plans just the select core, ignoring the statement's
  /// ORDER BY / LIMIT (used for the first core of a compound select,
  /// which shares the SelectStmt with the compound's trailing clauses).
  SelectPlanner(const SelectStmt& select, const PlannerContext& ctx,
                const Scope* outer, bool core_only = false)
      : select_(select), ctx_(ctx), outer_(outer), core_only_(core_only) {}

  Result<PlannedSelect> Plan();

 private:
  Status BuildScope();
  Status AnalyzeConjuncts();
  Result<ExecNodePtr> BuildJoinTree();
  Result<ExecNodePtr> BuildScan(size_t table_pos, const Scope& scan_scope,
                                std::vector<Conjunct*> pushed);
  Result<ExecNodePtr> TryIntervalScan(size_t table_pos,
                                      const Scope& scan_scope,
                                      const std::vector<Conjunct*>& pushed);
  Result<ExecNodePtr> JoinNext(ExecNodePtr left, size_t table_pos,
                               const std::set<size_t>& joined);

  // The key-extraction support function for `type`, if registered.
  const IntervalKeyFn* KeyFnFor(TypeId type) const {
    if (ctx_.interval_key_fns == nullptr) return nullptr;
    auto it = ctx_.interval_key_fns->find(type);
    return it == ctx_.interval_key_fns->end() ? nullptr : &it->second;
  }

  // True when a morsel-parallel operator over `table` may be planned
  // (PlanSelect has already set the cap to 1 where none may). The plan
  // encodes no row count: each run picks its worker count from the
  // table as it is then, so a cached plan stays right as the table
  // grows or shrinks.
  bool ParallelEligible(const Table* table) const {
    return ctx_.parallel_workers >= 2 && table != nullptr;
  }

  ParallelStats* StatsFor(const Table* table) const {
    if (ctx_.parallel_stats == nullptr) return nullptr;
    return ctx_.parallel_stats->ForTable(table->name());
  }

  // Binds `scan0_pushed_` against table 0's scan scope (binding is
  // pure, so re-binding conjuncts already placed in a scan is safe).
  Result<BoundExprPtr> BindScanZeroPredicate() {
    std::vector<BoundExprPtr> preds;
    ExprBinder binder(ctx_, &table_scopes_[0]);
    for (const Conjunct* c : scan0_pushed_) {
      TIP_ASSIGN_OR_RETURN(BoundExprPtr p, binder.Bind(*c->expr));
      preds.push_back(std::move(p));
    }
    return AndTogether(std::move(preds));
  }

  const SelectStmt& select_;
  const PlannerContext& ctx_;
  const Scope* outer_;
  bool core_only_;

  Scope scope_;              // full FROM scope (outer_ linked)
  FromLayout layout_;
  std::vector<Scope> table_scopes_;  // per-table scopes for inner sides
  std::vector<PlannedSelect> subplans_;  // derived tables (root else null)
  std::vector<Conjunct> conjuncts_;

  // Shape of table 0's scan, recorded by BuildScan so later phases can
  // fuse a parallel operator over it: true only when table 0 is a base
  // table scanned heap-order (no interval index scan), with
  // `scan0_pushed_` as the complete set of conjuncts pushed into it.
  bool scan0_plain_heap_ = false;
  std::vector<const Conjunct*> scan0_pushed_;
};

Status SelectPlanner::BuildScope() {
  scope_.outer = outer_;
  for (const FromItem& item : select_.from) {
    const std::string binding = ToLowerAscii(item.ref.binding_name());
    for (size_t i = 0; i < layout_.tables.size(); ++i) {
      const std::string other = ToLowerAscii(
          select_.from[i].ref.binding_name());
      if (other == binding) {
        return Status::InvalidArgument("duplicate table name or alias '" +
                                       binding + "' in FROM");
      }
    }
    layout_.offsets.push_back(layout_.total_columns);

    std::vector<Column> columns;
    if (item.ref.is_subquery()) {
      // Derived table: plan it now; it may be correlated only with the
      // *enclosing* query (outer_), never with FROM siblings.
      TIP_ASSIGN_OR_RETURN(PlannedSelect sub,
                           PlanSelect(*item.ref.subquery, ctx_, outer_));
      columns.reserve(sub.column_names.size());
      for (size_t i = 0; i < sub.column_names.size(); ++i) {
        columns.push_back({sub.column_names[i], sub.column_types[i]});
      }
      layout_.tables.push_back(nullptr);
      subplans_.push_back(std::move(sub));
    } else {
      TIP_ASSIGN_OR_RETURN(Table * table,
                           ctx_.catalog->GetTable(item.ref.table));
      columns = table->columns();
      layout_.tables.push_back(table);
      subplans_.emplace_back();
    }

    Scope table_scope;
    table_scope.outer = outer_;
    for (const Column& col : columns) {
      scope_.bindings.push_back({binding, col.name, col.type});
      table_scope.bindings.push_back({binding, col.name, col.type});
    }
    layout_.total_columns += columns.size();
    table_scopes_.push_back(std::move(table_scope));
  }
  return Status::OK();
}

Status SelectPlanner::AnalyzeConjuncts() {
  std::vector<const Expr*> raw;
  SplitConjuncts(select_.where.get(), &raw);
  for (const FromItem& item : select_.from) {
    SplitConjuncts(item.on.get(), &raw);
  }
  for (const Expr* expr : raw) {
    Conjunct c;
    c.expr = expr;
    TIP_RETURN_IF_ERROR(CollectInfo(*expr, scope_, layout_,
                                    *ctx_.aggregates, &c.info));
    if (c.info.has_aggregate) {
      return Status::TypeError(
          "aggregates are not allowed in WHERE or ON (use HAVING)");
    }
    conjuncts_.push_back(std::move(c));
  }
  return Status::OK();
}

Result<ExecNodePtr> SelectPlanner::TryIntervalScan(
    size_t table_pos, const Scope& scan_scope,
    const std::vector<Conjunct*>& pushed) {
  if (!ctx_.enable_interval_join) return ExecNodePtr();
  const Table* table = layout_.tables[table_pos];
  if (table == nullptr) return ExecNodePtr();  // derived table
  for (Conjunct* c : pushed) {
    const Expr& e = *c->expr;
    if (e.kind != ExprKind::kFuncCall ||
        !EqualsIgnoreCase(e.text, "overlaps") || e.args.size() != 2) {
      continue;
    }
    // One side must be a bare reference to an indexed column of this
    // table; the other must not reference this table at all.
    for (int side = 0; side < 2; ++side) {
      const Expr& col_side = *e.args[side];
      const Expr& probe_side = *e.args[1 - side];
      if (col_side.kind != ExprKind::kColumnRef) continue;
      Result<Scope::Resolution> res =
          scan_scope.Resolve(col_side.qualifier, col_side.text);
      if (!res.ok() || res->depth != 0) continue;
      if (!table->HasIntervalIndex(res->index)) continue;
      ExprInfo probe_info;
      TIP_RETURN_IF_ERROR(CollectInfo(probe_side, scope_, layout_,
                                      *ctx_.aggregates, &probe_info));
      if (probe_info.local_tables.count(table_pos) > 0 ||
          probe_info.has_subquery) {
        continue;
      }
      ExprBinder binder(ctx_, &scan_scope);
      // The probe must not reference any local table (it is evaluated
      // once per scan open); CollectInfo guaranteed that only for this
      // table, so re-check against all local tables.
      if (!probe_info.local_tables.empty()) continue;
      TIP_ASSIGN_OR_RETURN(BoundExprPtr probe, binder.Bind(probe_side));
      const IntervalKeyFn* key_fn = KeyFnFor(probe->type());
      if (key_fn == nullptr) continue;
      return ExecNodePtr(new IntervalScanNode(table, res->index,
                                              std::move(probe), *key_fn));
    }
  }
  return ExecNodePtr();
}

Result<ExecNodePtr> SelectPlanner::BuildScan(size_t table_pos,
                                             const Scope& scan_scope,
                                             std::vector<Conjunct*> pushed) {
  const Table* table = layout_.tables[table_pos];
  ExecNodePtr scan;
  if (table == nullptr) {
    // Derived table: the subplan is the scan (all plan nodes fully
    // re-initialize on Open, so re-scanning as a join inner works).
    scan = std::move(subplans_[table_pos].root);
    assert(scan != nullptr);
  } else {
    TIP_ASSIGN_OR_RETURN(scan,
                         TryIntervalScan(table_pos, scan_scope, pushed));
    if (scan == nullptr) {
      // Plain heap scan. Record table 0's shape so the aggregate /
      // interval-join fusion hooks can replace this subtree with a
      // fused morsel-parallel operator later.
      if (table_pos == 0) {
        scan0_plain_heap_ = true;
        scan0_pushed_.assign(pushed.begin(), pushed.end());
      }
      if (!pushed.empty() && ParallelEligible(table)) {
        // Morsel-parallel scan with the filter run inside the workers
        // (a bare scan stays serial: its workers would only collect row
        // ids). Only non-subquery conjuncts are ever pushed into scans,
        // so evaluating them from worker threads is safe.
        std::vector<BoundExprPtr> preds;
        ExprBinder binder(ctx_, &scan_scope);
        for (Conjunct* c : pushed) {
          TIP_ASSIGN_OR_RETURN(BoundExprPtr p, binder.Bind(*c->expr));
          preds.push_back(std::move(p));
          c->placed = true;
        }
        return ExecNodePtr(new ParallelScanNode(
            table, AndTogether(std::move(preds)), ctx_.parallel_workers,
            StatsFor(table)));
      }
      scan = ExecNodePtr(new SeqScanNode(table));
    }
  }
  // All pushed conjuncts (including the one that chose the index, as its
  // exact residual) run as a filter over the scan.
  std::vector<BoundExprPtr> preds;
  ExprBinder binder(ctx_, &scan_scope);
  for (Conjunct* c : pushed) {
    TIP_ASSIGN_OR_RETURN(BoundExprPtr p, binder.Bind(*c->expr));
    preds.push_back(std::move(p));
    c->placed = true;
  }
  BoundExprPtr predicate = AndTogether(std::move(preds));
  if (predicate != nullptr) {
    scan = ExecNodePtr(new FilterNode(std::move(scan),
                                      std::move(predicate)));
  }
  return scan;
}

Result<ExecNodePtr> SelectPlanner::JoinNext(ExecNodePtr left,
                                            size_t table_pos,
                                            const std::set<size_t>& joined) {
  std::set<size_t> with_new = joined;
  with_new.insert(table_pos);

  // Conjuncts placeable at this join level, split into: inner-only
  // (pushed into the inner scan), join conjuncts (involving the new
  // table and earlier ones), and the rest (handled later / earlier).
  std::vector<Conjunct*> inner_only;
  std::vector<Conjunct*> join_conjuncts;
  for (Conjunct& c : conjuncts_) {
    if (c.placed || c.info.has_subquery) continue;
    if (!c.OnlyTables(with_new) || !c.References(table_pos)) continue;
    if (c.OnlyTables({table_pos})) {
      inner_only.push_back(&c);
    } else {
      join_conjuncts.push_back(&c);
    }
  }

  const Scope& inner_scope = table_scopes_[table_pos];
  ExprBinder full_binder(ctx_, &scope_);

  // 1. Interval index join on an `overlaps` conjunct. Checked before
  // the inner scan is built: index probes bypass the scan entirely, so
  // the inner table's own filters fold into the residual instead.
  if (ctx_.enable_interval_join && layout_.tables[table_pos] != nullptr) {
    const Table* table = layout_.tables[table_pos];
    for (Conjunct* c : join_conjuncts) {
      const Expr& e = *c->expr;
      if (e.kind != ExprKind::kFuncCall ||
          !EqualsIgnoreCase(e.text, "overlaps") || e.args.size() != 2) {
        continue;
      }
      for (int side = 0; side < 2; ++side) {
        const Expr& col_side = *e.args[side];
        const Expr& probe_side = *e.args[1 - side];
        if (col_side.kind != ExprKind::kColumnRef) continue;
        Result<Scope::Resolution> res =
            inner_scope.Resolve(col_side.qualifier, col_side.text);
        if (!res.ok() || res->depth != 0) continue;
        if (!table->HasIntervalIndex(res->index)) continue;
        ExprInfo probe_info;
        TIP_RETURN_IF_ERROR(CollectInfo(probe_side, scope_, layout_,
                                        *ctx_.aggregates, &probe_info));
        if (probe_info.local_tables.count(table_pos) > 0) continue;
        TIP_ASSIGN_OR_RETURN(BoundExprPtr probe,
                             full_binder.Bind(probe_side));
        const IntervalKeyFn* key_fn = KeyFnFor(probe->type());
        if (key_fn == nullptr) continue;
        // Residual: every join conjunct (including the overlaps itself,
        // whose exact semantics the bounding-interval probe only
        // approximates) and the inner table's own filters, all bound
        // against the combined row.
        std::vector<BoundExprPtr> residuals;
        for (Conjunct* rc : join_conjuncts) {
          TIP_ASSIGN_OR_RETURN(BoundExprPtr p,
                               full_binder.Bind(*rc->expr));
          residuals.push_back(std::move(p));
          rc->placed = true;
        }
        for (Conjunct* rc : inner_only) {
          TIP_ASSIGN_OR_RETURN(BoundExprPtr p,
                               full_binder.Bind(*rc->expr));
          residuals.push_back(std::move(p));
          rc->placed = true;
        }
        IntervalJoinProbe join_probe{table, res->index, std::move(probe),
                                     *key_fn,
                                     AndTogether(std::move(residuals))};
        // Morsel-parallel variant: valid only when the left subtree is
        // exactly table 0's plain heap scan (so it can be re-expressed
        // as a worker-side morsel loop) and the scan is large enough to
        // split. Workers probe the shared immutable index view.
        if (table_pos == 1 && scan0_plain_heap_ &&
            ParallelEligible(layout_.tables[0])) {
          TIP_ASSIGN_OR_RETURN(BoundExprPtr left_pred,
                               BindScanZeroPredicate());
          return ExecNodePtr(new ParallelIntervalJoinNode(
              layout_.tables[0], std::move(left_pred), std::move(join_probe),
              ctx_.parallel_workers, StatsFor(layout_.tables[0])));
        }
        return ExecNodePtr(
            new IntervalJoinNode(std::move(left), std::move(join_probe)));
      }
    }
  }

  TIP_ASSIGN_OR_RETURN(ExecNodePtr inner,
                       BuildScan(table_pos, inner_scope, inner_only));

  // 2. Hash join on equality conjuncts.
  if (ctx_.enable_hash_join) {
    std::vector<BoundExprPtr> left_keys;
    std::vector<BoundExprPtr> right_keys;
    std::vector<Conjunct*> key_conjuncts;
    for (Conjunct* c : join_conjuncts) {
      const Expr& e = *c->expr;
      if (e.kind != ExprKind::kBinary || e.text != "=") continue;
      for (int side = 0; side < 2; ++side) {
        ExprInfo lhs_info, rhs_info;
        TIP_RETURN_IF_ERROR(CollectInfo(*e.args[side], scope_, layout_,
                                        *ctx_.aggregates, &lhs_info));
        TIP_RETURN_IF_ERROR(CollectInfo(*e.args[1 - side], scope_, layout_,
                                        *ctx_.aggregates, &rhs_info));
        const bool lhs_is_old = lhs_info.local_tables.count(table_pos) == 0;
        bool rhs_only_new = !rhs_info.local_tables.empty();
        for (size_t t : rhs_info.local_tables) {
          if (t != table_pos) rhs_only_new = false;
        }
        if (!lhs_is_old || !rhs_only_new) continue;
        ExprBinder inner_binder(ctx_, &inner_scope);
        TIP_ASSIGN_OR_RETURN(BoundExprPtr lk,
                             full_binder.Bind(*e.args[side]));
        TIP_ASSIGN_OR_RETURN(BoundExprPtr rk,
                             inner_binder.Bind(*e.args[1 - side]));
        // Reconcile key types the same way '=' would.
        if (lk->type() != rk->type()) {
          const Cast* r2l = ctx_.casts->Find(rk->type(), lk->type(), true);
          const Cast* l2r = ctx_.casts->Find(lk->type(), rk->type(), true);
          if (r2l != nullptr) {
            rk = BoundExprPtr(new BoundCast(r2l, std::move(rk)));
          } else if (l2r != nullptr) {
            lk = BoundExprPtr(new BoundCast(l2r, std::move(lk)));
          } else {
            continue;
          }
        }
        if (!ctx_.types->IsHashable(lk->type())) continue;
        left_keys.push_back(std::move(lk));
        right_keys.push_back(std::move(rk));
        key_conjuncts.push_back(c);
        break;
      }
    }
    if (!left_keys.empty()) {
      for (Conjunct* c : key_conjuncts) c->placed = true;
      std::vector<BoundExprPtr> residuals;
      for (Conjunct* c : join_conjuncts) {
        if (c->placed) continue;
        TIP_ASSIGN_OR_RETURN(BoundExprPtr p, full_binder.Bind(*c->expr));
        residuals.push_back(std::move(p));
        c->placed = true;
      }
      return ExecNodePtr(new HashJoinNode(
          std::move(left), std::move(inner), std::move(left_keys),
          std::move(right_keys), AndTogether(std::move(residuals)),
          ctx_.types));
    }
  }

  // 3. Fallback: nested-loop join with all join conjuncts as predicate.
  std::vector<BoundExprPtr> preds;
  for (Conjunct* c : join_conjuncts) {
    TIP_ASSIGN_OR_RETURN(BoundExprPtr p, full_binder.Bind(*c->expr));
    preds.push_back(std::move(p));
    c->placed = true;
  }
  return ExecNodePtr(new NestedLoopJoinNode(std::move(left),
                                            std::move(inner),
                                            AndTogether(std::move(preds))));
}

Result<ExecNodePtr> SelectPlanner::BuildJoinTree() {
  if (select_.from.empty()) {
    ExecNodePtr node(new SingleRowNode());
    // A WHERE clause over no tables is still legal.
    std::vector<BoundExprPtr> preds;
    ExprBinder binder(ctx_, &scope_);
    for (Conjunct& c : conjuncts_) {
      TIP_ASSIGN_OR_RETURN(BoundExprPtr p, binder.Bind(*c.expr));
      preds.push_back(std::move(p));
      c.placed = true;
    }
    BoundExprPtr predicate = AndTogether(std::move(preds));
    if (predicate != nullptr) {
      node = ExecNodePtr(new FilterNode(std::move(node),
                                        std::move(predicate)));
    }
    return node;
  }

  // Scan of the first table with its pushable single-table conjuncts.
  std::vector<Conjunct*> first_pushed;
  for (Conjunct& c : conjuncts_) {
    if (!c.placed && !c.info.has_subquery && c.OnlyTables({0})) {
      first_pushed.push_back(&c);
    }
  }
  // The first table's scope is the full scope prefix, which equals its
  // own table scope; use the table scope for consistency.
  TIP_ASSIGN_OR_RETURN(ExecNodePtr plan,
                       BuildScan(0, table_scopes_[0], first_pushed));

  std::set<size_t> joined{0};
  for (size_t k = 1; k < layout_.tables.size(); ++k) {
    TIP_ASSIGN_OR_RETURN(plan, JoinNext(std::move(plan), k, joined));
    joined.insert(k);
  }

  // Everything unplaced (conjuncts with subqueries, or placeable only
  // over the complete row) runs as a top filter.
  std::vector<BoundExprPtr> preds;
  ExprBinder binder(ctx_, &scope_);
  for (Conjunct& c : conjuncts_) {
    if (c.placed) continue;
    TIP_ASSIGN_OR_RETURN(BoundExprPtr p, binder.Bind(*c.expr));
    preds.push_back(std::move(p));
    c.placed = true;
  }
  BoundExprPtr predicate = AndTogether(std::move(preds));
  if (predicate != nullptr) {
    plan = ExecNodePtr(new FilterNode(std::move(plan),
                                      std::move(predicate)));
  }
  return plan;
}

Result<PlannedSelect> SelectPlanner::Plan() {
  TIP_RETURN_IF_ERROR(BuildScope());
  TIP_RETURN_IF_ERROR(AnalyzeConjuncts());
  TIP_ASSIGN_OR_RETURN(ExecNodePtr plan, BuildJoinTree());

  // Expand stars in the select list.
  struct OutputItem {
    const Expr* expr = nullptr;  // null for expanded star columns
    ExprPtr owned;               // synthesized column refs for stars
    std::string name;
  };
  std::vector<OutputItem> outputs;
  for (const SelectItem& item : select_.items) {
    if (item.is_star) {
      bool matched = false;
      for (const Scope::Binding& b : scope_.bindings) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(item.star_qualifier, b.table)) {
          continue;
        }
        matched = true;
        OutputItem out;
        out.owned = Expr::ColumnRef(b.table, b.column);
        out.expr = out.owned.get();
        out.name = b.column;
        outputs.push_back(std::move(out));
      }
      if (!matched) {
        return Status::InvalidArgument(
            item.star_qualifier.empty()
                ? "SELECT * with no FROM tables"
                : "unknown table '" + item.star_qualifier + "' in select "
                  "list");
      }
    } else {
      OutputItem out;
      out.expr = item.expr.get();
      out.name = item.alias.empty() ? DeriveName(*item.expr)
                                    : ToLowerAscii(item.alias);
      outputs.push_back(std::move(out));
    }
  }

  // Detect grouping.
  std::vector<const Expr*> aggregate_calls;
  for (const OutputItem& out : outputs) {
    TIP_RETURN_IF_ERROR(
        CollectAggregates(*out.expr, *ctx_.aggregates, &aggregate_calls));
  }
  if (select_.having != nullptr) {
    TIP_RETURN_IF_ERROR(CollectAggregates(*select_.having,
                                          *ctx_.aggregates,
                                          &aggregate_calls));
  }
  if (!core_only_) {
    for (const OrderItem& item : select_.order_by) {
      TIP_RETURN_IF_ERROR(CollectAggregates(*item.expr, *ctx_.aggregates,
                                            &aggregate_calls));
    }
  }
  const bool grouped =
      !select_.group_by.empty() || !aggregate_calls.empty();
  if (!grouped && select_.having != nullptr) {
    return Status::TypeError("HAVING requires GROUP BY or aggregates");
  }
  if (grouped) {
    // Subqueries above the aggregation would resolve their outer
    // references against the FROM scope but evaluate against the
    // aggregate output row; reject them rather than mis-evaluate.
    // (Subqueries in WHERE run below the aggregation and are fine.)
    auto reject_subquery = [&](const Expr& e,
                               const char* where) -> Status {
      ExprInfo info;
      TIP_RETURN_IF_ERROR(
          CollectInfo(e, scope_, layout_, *ctx_.aggregates, &info));
      if (info.has_subquery) {
        return Status::NotImplemented(
            std::string("subqueries in the ") + where +
            " of a grouped query are not supported");
      }
      return Status::OK();
    };
    for (const OutputItem& out : outputs) {
      TIP_RETURN_IF_ERROR(reject_subquery(*out.expr, "select list"));
    }
    if (select_.having != nullptr) {
      TIP_RETURN_IF_ERROR(reject_subquery(*select_.having, "HAVING"));
    }
    for (const ExprPtr& g : select_.group_by) {
      TIP_RETURN_IF_ERROR(reject_subquery(*g, "GROUP BY"));
    }
  }

  ExprBinder binder(ctx_, &scope_);
  std::vector<Replacement> replacements;
  std::vector<BoundExprPtr> output_exprs;
  ExprBinder output_binder(ctx_, &scope_);

  if (grouped) {
    // Bind group keys against the FROM scope.
    std::vector<BoundExprPtr> group_bound;
    for (const ExprPtr& g : select_.group_by) {
      TIP_ASSIGN_OR_RETURN(BoundExprPtr b, binder.Bind(*g));
      replacements.push_back(
          {g.get(), replacements.size(), b->type()});
      group_bound.push_back(std::move(b));
    }
    // Bind aggregate arguments against the FROM scope and resolve each
    // call.
    std::vector<AggregateSpec> specs;
    for (const Expr* call : aggregate_calls) {
      AggregateSpec spec;
      TypeId arg_type = TypeId::kNull;
      if (call->args.size() == 1 &&
          call->args[0]->kind == ExprKind::kStar) {
        spec.arg = nullptr;  // COUNT(*)
      } else if (call->args.size() == 1) {
        TIP_ASSIGN_OR_RETURN(spec.arg, binder.Bind(*call->args[0]));
        arg_type = spec.arg->type();
      } else {
        return Status::TypeError("aggregate '" + call->text +
                                 "' takes exactly one argument");
      }
      TIP_ASSIGN_OR_RETURN(
          spec.agg,
          ctx_.aggregates->Resolve(call->text, arg_type, *ctx_.casts));
      replacements.push_back({call,
                              select_.group_by.size() + specs.size(),
                              spec.agg.result});
      specs.push_back(std::move(spec));
    }
    // Fuse scan + filter + global aggregation into one morsel-parallel
    // operator when there is no GROUP BY (grouped aggregation stays
    // serial: merging per-worker group tables does not pay), the whole
    // input pipeline is just table 0's plain heap scan with fully
    // pushed conjuncts (a subquery conjunct would have left a Filter
    // above the scan, and subqueries cannot run on worker threads) and
    // every aggregate supports Merge. Aggregate arguments are
    // subquery-free here: aggregated queries reject subqueries above
    // the aggregation outright.
    bool fuse_parallel =
        group_bound.empty() && layout_.tables.size() == 1 &&
        layout_.tables[0] != nullptr && scan0_plain_heap_ &&
        ParallelEligible(layout_.tables[0]);
    for (const Conjunct& c : conjuncts_) {
      if (c.info.has_subquery) fuse_parallel = false;
    }
    for (const AggregateSpec& spec : specs) {
      if (!spec.agg.def->mergeable) fuse_parallel = false;
    }
    if (fuse_parallel) {
      TIP_ASSIGN_OR_RETURN(BoundExprPtr pred, BindScanZeroPredicate());
      plan = ExecNodePtr(new ParallelAggregateNode(
          layout_.tables[0], std::move(pred), std::move(specs),
          ctx_.parallel_workers, StatsFor(layout_.tables[0])));
    } else {
      plan = ExecNodePtr(new AggregateNode(std::move(plan),
                                           std::move(group_bound),
                                           std::move(specs), ctx_.types));
    }
    output_binder.SetReplacements(&replacements);

    if (select_.having != nullptr) {
      TIP_ASSIGN_OR_RETURN(BoundExprPtr having,
                           output_binder.Bind(*select_.having));
      if (having->type() != TypeId::kBool &&
          having->type() != TypeId::kNull) {
        return Status::TypeError("HAVING requires a BOOLEAN expression");
      }
      plan = ExecNodePtr(new FilterNode(std::move(plan),
                                        std::move(having)));
    }
  }

  // Bind output expressions (against the group scope when grouped).
  std::vector<TypeId> output_types;
  std::vector<std::string> output_names;
  for (const OutputItem& out : outputs) {
    TIP_ASSIGN_OR_RETURN(BoundExprPtr b, output_binder.Bind(*out.expr));
    output_types.push_back(b->type());
    output_names.push_back(out.name);
    output_exprs.push_back(std::move(b));
  }
  const size_t visible_arity = output_exprs.size();

  // ORDER BY: output position, output name, or an extra hidden column.
  std::vector<SortNode::Key> sort_keys;
  size_t hidden = 0;
  const std::vector<OrderItem> kNoOrder;
  const std::vector<OrderItem>& order_items =
      core_only_ ? kNoOrder : select_.order_by;
  for (const OrderItem& item : order_items) {
    SortNode::Key key;
    key.descending = item.descending;
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kLiteral && e.literal_kind == LiteralKind::kInt) {
      if (e.int_value < 1 ||
          e.int_value > static_cast<int64_t>(visible_arity)) {
        return Status::InvalidArgument("ORDER BY position out of range");
      }
      const size_t idx = static_cast<size_t>(e.int_value - 1);
      key.expr = BoundExprPtr(
          new BoundColumn(output_types[idx], 0, idx));
      sort_keys.push_back(std::move(key));
      continue;
    }
    if (e.kind == ExprKind::kColumnRef && e.qualifier.empty()) {
      int idx = -1;
      for (size_t i = 0; i < output_names.size(); ++i) {
        if (EqualsIgnoreCase(output_names[i], e.text)) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx >= 0) {
        key.expr = BoundExprPtr(new BoundColumn(
            output_types[static_cast<size_t>(idx)], 0,
            static_cast<size_t>(idx)));
        sort_keys.push_back(std::move(key));
        continue;
      }
    }
    // General expression: compute it as a hidden output column.
    ExprInfo info;
    TIP_RETURN_IF_ERROR(
        CollectInfo(e, scope_, layout_, *ctx_.aggregates, &info));
    if (info.has_subquery) {
      return Status::InvalidArgument("subqueries in ORDER BY are not "
                                     "supported");
    }
    if (select_.distinct) {
      return Status::InvalidArgument(
          "ORDER BY expressions must appear in the select list when "
          "DISTINCT is used");
    }
    TIP_ASSIGN_OR_RETURN(BoundExprPtr b, output_binder.Bind(e));
    const size_t idx = visible_arity + hidden;
    key.expr = BoundExprPtr(new BoundColumn(b->type(), 0, idx));
    output_exprs.push_back(std::move(b));
    ++hidden;
    sort_keys.push_back(std::move(key));
  }

  plan = ExecNodePtr(new ProjectNode(std::move(plan),
                                     std::move(output_exprs)));
  if (select_.distinct) {
    plan = ExecNodePtr(new DistinctNode(std::move(plan), ctx_.types));
  }
  if (!sort_keys.empty()) {
    plan = ExecNodePtr(new SortNode(std::move(plan), std::move(sort_keys),
                                    ctx_.types));
  }
  if (hidden > 0) {
    plan = ExecNodePtr(new PrefixNode(std::move(plan), visible_arity));
  }
  if (!core_only_ &&
      (select_.limit.has_value() || select_.offset.has_value())) {
    plan = ExecNodePtr(new LimitNode(std::move(plan), select_.limit,
                                     select_.offset.value_or(0)));
  }

  PlannedSelect out;
  out.root = std::move(plan);
  out.column_names = std::move(output_names);
  out.column_types = std::move(output_types);
  return out;
}

}  // namespace

Result<Scope::Resolution> Scope::Resolve(std::string_view qualifier,
                                         std::string_view name) const {
  const Scope* scope = this;
  size_t depth = 0;
  while (scope != nullptr) {
    int found = -1;
    for (size_t i = 0; i < scope->bindings.size(); ++i) {
      const Binding& b = scope->bindings[i];
      if (!EqualsIgnoreCase(b.column, name)) continue;
      if (!qualifier.empty() && !EqualsIgnoreCase(b.table, qualifier)) {
        continue;
      }
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column reference '" +
                                       std::string(name) + "'");
      }
      found = static_cast<int>(i);
    }
    if (found >= 0) {
      return Resolution{depth, static_cast<size_t>(found),
                        scope->bindings[static_cast<size_t>(found)].type};
    }
    scope = scope->outer;
    ++depth;
  }
  std::string full = qualifier.empty()
                         ? std::string(name)
                         : std::string(qualifier) + "." + std::string(name);
  return Status::NotFound("unknown column '" + full + "'");
}

namespace {

// Combines compound-select cores left to right, then applies the
// trailing ORDER BY (output positions or names only) and LIMIT.
Result<PlannedSelect> PlanCompound(const SelectStmt& select,
                                   const PlannerContext& ctx,
                                   const Scope* outer) {
  SelectPlanner base_planner(select, ctx, outer, /*core_only=*/true);
  TIP_ASSIGN_OR_RETURN(PlannedSelect combined, base_planner.Plan());

  for (const CompoundPart& part : select.compounds) {
    SelectPlanner part_planner(*part.select, ctx, outer,
                               /*core_only=*/true);
    TIP_ASSIGN_OR_RETURN(PlannedSelect next, part_planner.Plan());
    if (next.column_types.size() != combined.column_types.size()) {
      return Status::TypeError(
          "compound select operands must have the same number of "
          "columns");
    }
    for (size_t i = 0; i < next.column_types.size(); ++i) {
      if (next.column_types[i] != combined.column_types[i] &&
          next.column_types[i] != TypeId::kNull &&
          combined.column_types[i] != TypeId::kNull) {
        return Status::TypeError(
            "compound select column " + std::to_string(i + 1) +
            " has mismatched types '" +
            ctx.types->Get(combined.column_types[i]).name + "' and '" +
            ctx.types->Get(next.column_types[i]).name + "'");
      }
      if (combined.column_types[i] == TypeId::kNull) {
        combined.column_types[i] = next.column_types[i];
      }
    }
    switch (part.op) {
      case CompoundPart::Op::kUnionAll: {
        std::vector<ExecNodePtr> children;
        children.push_back(std::move(combined.root));
        children.push_back(std::move(next.root));
        combined.root = ExecNodePtr(new ConcatNode(std::move(children)));
        break;
      }
      case CompoundPart::Op::kUnion: {
        std::vector<ExecNodePtr> children;
        children.push_back(std::move(combined.root));
        children.push_back(std::move(next.root));
        combined.root = ExecNodePtr(new DistinctNode(
            ExecNodePtr(new ConcatNode(std::move(children))), ctx.types));
        break;
      }
      case CompoundPart::Op::kIntersect:
        combined.root = ExecNodePtr(
            new SetOpNode(SetOpNode::Op::kIntersect,
                          std::move(combined.root), std::move(next.root),
                          ctx.types));
        break;
      case CompoundPart::Op::kExcept:
        combined.root = ExecNodePtr(
            new SetOpNode(SetOpNode::Op::kExcept,
                          std::move(combined.root), std::move(next.root),
                          ctx.types));
        break;
    }
  }

  // ORDER BY over the combined output: positions or output names only.
  std::vector<SortNode::Key> sort_keys;
  for (const OrderItem& item : select.order_by) {
    SortNode::Key key;
    key.descending = item.descending;
    const Expr& e = *item.expr;
    int idx = -1;
    if (e.kind == ExprKind::kLiteral &&
        e.literal_kind == LiteralKind::kInt) {
      if (e.int_value < 1 ||
          e.int_value > static_cast<int64_t>(
                            combined.column_names.size())) {
        return Status::InvalidArgument("ORDER BY position out of range");
      }
      idx = static_cast<int>(e.int_value - 1);
    } else if (e.kind == ExprKind::kColumnRef && e.qualifier.empty()) {
      for (size_t i = 0; i < combined.column_names.size(); ++i) {
        if (EqualsIgnoreCase(combined.column_names[i], e.text)) {
          idx = static_cast<int>(i);
          break;
        }
      }
    }
    if (idx < 0) {
      return Status::InvalidArgument(
          "compound selects support ORDER BY only on output positions "
          "or names");
    }
    key.expr = BoundExprPtr(new BoundColumn(
        combined.column_types[static_cast<size_t>(idx)], 0,
        static_cast<size_t>(idx)));
    sort_keys.push_back(std::move(key));
  }
  if (!sort_keys.empty()) {
    combined.root = ExecNodePtr(new SortNode(std::move(combined.root),
                                             std::move(sort_keys),
                                             ctx.types));
  }
  if (select.limit.has_value() || select.offset.has_value()) {
    combined.root = ExecNodePtr(new LimitNode(std::move(combined.root),
                                              select.limit,
                                              select.offset.value_or(0)));
  }
  return combined;
}

// True when the reader of `select`'s rows may stop before the last: a
// LIMIT (with or without OFFSET) over rows that no ORDER BY, GROUP BY
// or aggregate reads to the end first.
bool StopsEarly(const SelectStmt& select,
                const AggregateRegistry& aggregates) {
  if (!select.limit.has_value() || !select.order_by.empty()) return false;
  if (!select.compounds.empty()) return true;
  if (!select.group_by.empty() || select.having != nullptr) return false;
  for (const SelectItem& item : select.items) {
    if (item.expr == nullptr) continue;
    std::vector<const Expr*> calls;
    // A nested aggregate fails planning itself; either way no scan of
    // this statement runs.
    if (!CollectAggregates(*item.expr, aggregates, &calls).ok() ||
        !calls.empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<PlannedSelect> PlanSelect(const SelectStmt& select,
                                 const PlannerContext& ctx,
                                 const Scope* outer) {
  // A morsel operator reads its whole input before it returns a row, so
  // where the reader may stop early the scans stay serial: a subquery
  // (an EXISTS stops at its first row, and every evaluation would pay
  // for a morsel run) and a LIMIT that nothing reads to the end first.
  // So does a statement that calls a serial-only routine. Everything
  // planned inside such a select inherits the serial cap.
  if (ctx.parallel_workers >= 2 &&
      (outer != nullptr || StopsEarly(select, *ctx.aggregates) ||
       CallsSerialOnlyRoutine(select, *ctx.routines))) {
    PlannerContext serial = ctx;
    serial.parallel_workers = 1;
    return PlanSelect(select, serial, outer);
  }
  if (!select.compounds.empty()) return PlanCompound(select, ctx, outer);
  SelectPlanner planner(select, ctx, outer);
  return planner.Plan();
}

Result<BoundExprPtr> BindScalar(const Expr& expr, const PlannerContext& ctx,
                                const Scope* scope) {
  static const Scope kEmptyScope;
  ExprBinder binder(ctx, scope != nullptr ? scope : &kEmptyScope);
  return binder.Bind(expr);
}

Result<BoundExprPtr> CoerceTo(BoundExprPtr expr, TypeId target,
                              const PlannerContext& ctx) {
  return CoerceToImpl(std::move(expr), target, ctx);
}

}  // namespace tip::engine
