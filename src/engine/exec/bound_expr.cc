#include "engine/exec/bound_expr.h"

#include <cassert>
#include <memory>
#include <utility>

#include "engine/exec/exec_node.h"

namespace tip::engine {

namespace {

// A computed node's result: the value goes into the caller's slot.
const Datum* Store(Datum* slot, Datum value) {
  *slot = std::move(value);
  return slot;
}

}  // namespace

Result<const Datum*> BoundColumn::Eval(const TupleCtx& tuple, EvalContext&,
                                       Datum*) const {
  const TupleCtx* scope = &tuple;
  for (size_t i = 0; i < depth_; ++i) {
    if (scope->outer == nullptr) {
      return Status::Internal("correlated column reference escapes scope");
    }
    scope = scope->outer;
  }
  if (scope->row == nullptr || index_ >= scope->row->size()) {
    return Status::Internal("column index out of range");
  }
  return &(*scope->row)[index_];
}

Result<const Datum*> BoundRoutineCall::Eval(const TupleCtx& tuple,
                                            EvalContext& ctx,
                                            Datum* slot) const {
  const size_t n = args_.size();
  Datum inline_slots[kInlineArgs];
  const Datum* inline_values[kInlineArgs];
  std::unique_ptr<Datum[]> wide_slots;
  std::unique_ptr<const Datum*[]> wide_values;
  Datum* slots = inline_slots;
  const Datum** values = inline_values;
  if (n > kInlineArgs) {
    wide_slots = std::make_unique<Datum[]>(n);
    wide_values = std::make_unique<const Datum*[]>(n);
    slots = wide_slots.get();
    values = wide_values.get();
  }
  for (size_t i = 0; i < n; ++i) {
    TIP_ASSIGN_OR_RETURN(values[i], args_[i]->Eval(tuple, ctx, &slots[i]));
    if (values[i]->is_null() && routine_->strict) {
      return Store(slot, Datum::NullOf(routine_->result));
    }
  }
  TIP_ASSIGN_OR_RETURN(*slot, routine_->fn(DatumRefs(values, n), ctx));
  return slot;
}

Result<const Datum*> BoundCast::Eval(const TupleCtx& tuple, EvalContext& ctx,
                                     Datum* slot) const {
  TIP_ASSIGN_OR_RETURN(const Datum* v, operand_->Eval(tuple, ctx, slot));
  if (v->is_null()) return Store(slot, Datum::NullOf(cast_->to));
  TIP_ASSIGN_OR_RETURN(*slot, cast_->fn(*v, ctx));
  return slot;
}

Result<const Datum*> BoundCompare::Eval(const TupleCtx& tuple,
                                        EvalContext& ctx,
                                        Datum* slot) const {
  Datum lhs_slot;
  TIP_ASSIGN_OR_RETURN(const Datum* lhs, lhs_->Eval(tuple, ctx, &lhs_slot));
  TIP_ASSIGN_OR_RETURN(const Datum* rhs, rhs_->Eval(tuple, ctx, slot));
  if (lhs->is_null() || rhs->is_null()) {
    return Store(slot, Datum::NullOf(TypeId::kBool));
  }
  TIP_ASSIGN_OR_RETURN(int c, types_->Compare(*lhs, *rhs, ctx.tx));
  bool result = false;
  switch (op_) {
    case Op::kEq:
      result = c == 0;
      break;
    case Op::kNe:
      result = c != 0;
      break;
    case Op::kLt:
      result = c < 0;
      break;
    case Op::kLe:
      result = c <= 0;
      break;
    case Op::kGt:
      result = c > 0;
      break;
    case Op::kGe:
      result = c >= 0;
      break;
  }
  return Store(slot, Datum::Bool(result));
}

Result<const Datum*> BoundLogical::Eval(const TupleCtx& tuple,
                                        EvalContext& ctx,
                                        Datum* slot) const {
  // Kleene three-valued logic with short-circuiting where the answer is
  // already determined: FALSE decides an AND, TRUE decides an OR. Each
  // operand is read before the next evaluation reuses the slot.
  const bool decisive = op_ == Op::kOr;
  TIP_ASSIGN_OR_RETURN(const Datum* lhs, lhs_->Eval(tuple, ctx, slot));
  const bool lhs_null = lhs->is_null();
  if (!lhs_null && lhs->bool_value() == decisive) {
    return Store(slot, Datum::Bool(decisive));
  }
  TIP_ASSIGN_OR_RETURN(const Datum* rhs, rhs_->Eval(tuple, ctx, slot));
  if (!rhs->is_null() && rhs->bool_value() == decisive) {
    return Store(slot, Datum::Bool(decisive));
  }
  if (lhs_null || rhs->is_null()) {
    return Store(slot, Datum::NullOf(TypeId::kBool));
  }
  return Store(slot, Datum::Bool(!decisive));
}

Result<const Datum*> BoundNot::Eval(const TupleCtx& tuple, EvalContext& ctx,
                                    Datum* slot) const {
  TIP_ASSIGN_OR_RETURN(const Datum* v, operand_->Eval(tuple, ctx, slot));
  return Store(slot, v->is_null() ? Datum::NullOf(TypeId::kBool)
                                  : Datum::Bool(!v->bool_value()));
}

Result<const Datum*> BoundIsNull::Eval(const TupleCtx& tuple,
                                       EvalContext& ctx, Datum* slot) const {
  TIP_ASSIGN_OR_RETURN(const Datum* v, operand_->Eval(tuple, ctx, slot));
  return Store(slot, Datum::Bool(v->is_null() != negated_));
}

Result<const Datum*> BoundCase::Eval(const TupleCtx& tuple, EvalContext& ctx,
                                     Datum* slot) const {
  assert(whens_.size() == thens_.size());
  for (size_t i = 0; i < whens_.size(); ++i) {
    TIP_ASSIGN_OR_RETURN(const Datum* cond,
                         whens_[i]->Eval(tuple, ctx, slot));
    if (!cond->is_null() && cond->bool_value()) {
      return thens_[i]->Eval(tuple, ctx, slot);
    }
  }
  if (else_ != nullptr) return else_->Eval(tuple, ctx, slot);
  return Store(slot, Datum::NullOf(type()));
}

BoundExists::BoundExists(std::unique_ptr<ExecNode> subplan, bool negated)
    : BoundExpr(TypeId::kBool),
      subplan_(std::move(subplan)),
      negated_(negated) {}

BoundExists::~BoundExists() = default;

Result<const Datum*> BoundExists::Eval(const TupleCtx& tuple,
                                       EvalContext& ctx, Datum* slot) const {
  ExecState state;
  state.eval = &ctx;
  state.outer = &tuple;  // the subplan's depth-1 scope is this tuple
  TIP_RETURN_IF_ERROR(subplan_->Open(state));
  Row row;
  TIP_ASSIGN_OR_RETURN(bool has_row, subplan_->Next(state, &row));
  return Store(slot, Datum::Bool(has_row != negated_));
}

BoundScalarSubquery::BoundScalarSubquery(TypeId type,
                                         std::unique_ptr<ExecNode> subplan)
    : BoundExpr(type), subplan_(std::move(subplan)) {}

BoundScalarSubquery::~BoundScalarSubquery() = default;

// The value goes into the slot: the subplan reuses its row buffers, so
// a pointer into them would not outlive this call.
Result<const Datum*> BoundScalarSubquery::Eval(const TupleCtx& tuple,
                                               EvalContext& ctx,
                                               Datum* slot) const {
  ExecState state;
  state.eval = &ctx;
  state.outer = &tuple;
  TIP_RETURN_IF_ERROR(subplan_->Open(state));
  Row row;
  TIP_ASSIGN_OR_RETURN(bool has_row, subplan_->Next(state, &row));
  if (!has_row) return Store(slot, Datum::NullOf(type()));
  Row extra;
  TIP_ASSIGN_OR_RETURN(bool has_more, subplan_->Next(state, &extra));
  if (has_more) {
    return Status::InvalidArgument(
        "scalar subquery produced more than one row");
  }
  return Store(slot, std::move(row[0]));
}

BoundInSubquery::BoundInSubquery(BoundExprPtr operand,
                                 std::unique_ptr<ExecNode> subplan,
                                 bool negated, const TypeRegistry* types)
    : BoundExpr(TypeId::kBool),
      operand_(std::move(operand)),
      subplan_(std::move(subplan)),
      negated_(negated),
      types_(types) {}

BoundInSubquery::~BoundInSubquery() = default;

Result<const Datum*> BoundInSubquery::Eval(const TupleCtx& tuple,
                                           EvalContext& ctx,
                                           Datum* slot) const {
  // The needle may live in the slot until the verdict overwrites it.
  TIP_ASSIGN_OR_RETURN(const Datum* needle, operand_->Eval(tuple, ctx, slot));
  ExecState state;
  state.eval = &ctx;
  state.outer = &tuple;
  TIP_RETURN_IF_ERROR(subplan_->Open(state));
  Row row;
  bool saw_null = false;
  for (;;) {
    TIP_ASSIGN_OR_RETURN(bool has_row, subplan_->Next(state, &row));
    if (!has_row) break;
    if (row[0].is_null()) {
      saw_null = true;
      continue;
    }
    if (needle->is_null()) continue;  // NULL IN (...) is NULL or FALSE
    TIP_ASSIGN_OR_RETURN(int c, types_->Compare(*needle, row[0], ctx.tx));
    if (c == 0) return Store(slot, Datum::Bool(!negated_));
  }
  return Store(slot, needle->is_null() || saw_null
                         ? Datum::NullOf(TypeId::kBool)
                         : Datum::Bool(negated_));
}

}  // namespace tip::engine
