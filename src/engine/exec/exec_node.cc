#include "engine/exec/exec_node.h"

#include <algorithm>

#include "engine/exec/row_utils.h"

namespace tip::engine {

using exec_util::DatumsEqual;
using exec_util::EvalInto;
using exec_util::HashDatums;
using exec_util::PredicatePasses;

namespace {

// Evaluates equi-join keys over `tuple`, borrowed: `(*keys)[i]` points
// at the i-th key, computed ones living in `(*slots)[i]`. False as soon
// as a key is NULL, which never joins.
Result<bool> EvalJoinKeys(const std::vector<BoundExprPtr>& exprs,
                          const TupleCtx& tuple, EvalContext& ctx,
                          std::vector<Datum>* slots,
                          std::vector<const Datum*>* keys) {
  slots->resize(exprs.size());
  keys->resize(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    TIP_ASSIGN_OR_RETURN((*keys)[i],
                         exprs[i]->Eval(tuple, ctx, &(*slots)[i]));
    if ((*keys)[i]->is_null()) return false;
  }
  return true;
}

}  // namespace

Status StepAggregate(const AggregateSpec& spec, const TupleCtx& tuple,
                     EvalContext& ctx, AggregateState& state) {
  if (spec.arg == nullptr) return state.Step(Datum::Int(1), ctx);
  Datum slot;
  TIP_ASSIGN_OR_RETURN(const Datum* value, spec.arg->Eval(tuple, ctx, &slot));
  if (value->is_null()) {
    if (spec.agg.def->strict) return Status::OK();
  } else if (spec.agg.arg_cast != nullptr) {
    TIP_ASSIGN_OR_RETURN(slot, spec.agg.arg_cast->fn(*value, ctx));
    value = &slot;
  }
  return state.Step(*value, ctx);
}

void ExecNode::Explain(int depth, std::string* out) const {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(DebugName());
  out->push_back('\n');
}

Result<const Row*> ExecNode::NextBorrowed(ExecState& state) {
  TIP_ASSIGN_OR_RETURN(bool has_row, Next(state, &borrow_buf_));
  return has_row ? &borrow_buf_ : nullptr;
}

// -- SingleRowNode -----------------------------------------------------------

Status SingleRowNode::Open(ExecState&) {
  done_ = false;
  return Status::OK();
}

Result<bool> SingleRowNode::Next(ExecState&, Row* out) {
  if (done_) return false;
  done_ = true;
  out->clear();
  return true;
}

// -- SeqScanNode -------------------------------------------------------------

Status SeqScanNode::Open(ExecState&) {
  cursor_ = table_->heap().Scan();
  return Status::OK();
}

Result<bool> SeqScanNode::Next(ExecState& state, Row* out) {
  TIP_ASSIGN_OR_RETURN(const Row* row, NextBorrowed(state));
  if (row == nullptr) return false;
  *out = *row;
  return true;
}

Result<const Row*> SeqScanNode::NextBorrowed(ExecState&) {
  RowId id;
  const Row* row;
  if (!cursor_.Next(&id, &row)) return nullptr;
  return row;
}

// -- IntervalScanNode --------------------------------------------------------

Status IntervalScanNode::Open(ExecState& state) {
  matches_.clear();
  next_ = 0;
  TupleCtx tuple;
  tuple.outer = state.outer;
  Datum slot;
  TIP_ASSIGN_OR_RETURN(const Datum* probe,
                       probe_->Eval(tuple, *state.eval, &slot));
  if (probe->is_null()) return Status::OK();  // no matches
  TIP_ASSIGN_OR_RETURN(IntervalIndexView index,
                       table_->GetIntervalIndex(column_, state.eval->tx));
  index.FindOverlapping(probe_key_fn_(*probe), &matches_);
  return Status::OK();
}

Result<bool> IntervalScanNode::Next(ExecState& state, Row* out) {
  TIP_ASSIGN_OR_RETURN(const Row* row, NextBorrowed(state));
  if (row == nullptr) return false;
  *out = *row;
  return true;
}

Result<const Row*> IntervalScanNode::NextBorrowed(ExecState&) {
  while (next_ < matches_.size()) {
    const Row* row = table_->heap().Get(matches_[next_++]);
    if (row != nullptr) return row;
  }
  return nullptr;
}

void IntervalScanNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  std::optional<IndexStatsSnapshot> stats =
      table_->IntervalIndexStats(column_);
  if (stats.has_value()) {
    out->append(static_cast<size_t>(depth + 1) * 2, ' ');
    out->append("IndexStats(" + FormatMetrics(IndexMetrics(*stats)) + ")\n");
  }
}

// -- FilterNode --------------------------------------------------------------

Status FilterNode::Open(ExecState& state) { return child_->Open(state); }

Result<bool> FilterNode::Next(ExecState& state, Row* out) {
  TIP_ASSIGN_OR_RETURN(const Row* row, NextBorrowed(state));
  if (row == nullptr) return false;
  *out = *row;
  return true;
}

Result<const Row*> FilterNode::NextBorrowed(ExecState& state) {
  for (;;) {
    TIP_RETURN_IF_ERROR(state.eval->CheckGuard());
    TIP_ASSIGN_OR_RETURN(const Row* row, child_->NextBorrowed(state));
    if (row == nullptr) return nullptr;
    TupleCtx tuple{row, state.outer};
    TIP_ASSIGN_OR_RETURN(bool pass,
                         PredicatePasses(*predicate_, tuple, *state.eval));
    if (pass) return row;
  }
}

void FilterNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  child_->Explain(depth + 1, out);
}

// -- ProjectNode -------------------------------------------------------------

Status ProjectNode::Open(ExecState& state) { return child_->Open(state); }

Result<bool> ProjectNode::Next(ExecState& state, Row* out) {
  TIP_ASSIGN_OR_RETURN(const Row* input, child_->NextBorrowed(state));
  if (input == nullptr) return false;
  TupleCtx tuple{input, state.outer};
  out->resize(exprs_.size());
  for (size_t i = 0; i < exprs_.size(); ++i) {
    TIP_RETURN_IF_ERROR(EvalInto(*exprs_[i], tuple, *state.eval, &(*out)[i]));
  }
  return true;
}

void ProjectNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  child_->Explain(depth + 1, out);
}

// -- PrefixNode --------------------------------------------------------------

Status PrefixNode::Open(ExecState& state) { return child_->Open(state); }

Result<bool> PrefixNode::Next(ExecState& state, Row* out) {
  TIP_ASSIGN_OR_RETURN(bool has_row, child_->Next(state, out));
  if (!has_row) return false;
  out->resize(arity_);
  return true;
}

void PrefixNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  child_->Explain(depth + 1, out);
}

// -- NestedLoopJoinNode ------------------------------------------------------

Status NestedLoopJoinNode::Open(ExecState& state) {
  TIP_RETURN_IF_ERROR(outer_->Open(state));
  outer_valid_ = false;
  return Status::OK();
}

Result<bool> NestedLoopJoinNode::Next(ExecState& state, Row* out) {
  for (;;) {
    TIP_RETURN_IF_ERROR(state.eval->CheckGuard());
    if (!outer_valid_) {
      TIP_ASSIGN_OR_RETURN(bool has_row, outer_->Next(state, &outer_row_));
      if (!has_row) return false;
      outer_valid_ = true;
      TIP_RETURN_IF_ERROR(inner_->Open(state));
    }
    TIP_ASSIGN_OR_RETURN(const Row* inner_row,
                         inner_->NextBorrowed(state));
    if (inner_row == nullptr) {
      outer_valid_ = false;
      continue;
    }
    out->clear();
    out->reserve(outer_row_.size() + inner_row->size());
    out->insert(out->end(), outer_row_.begin(), outer_row_.end());
    out->insert(out->end(), inner_row->begin(), inner_row->end());
    if (predicate_ != nullptr) {
      TupleCtx tuple{out, state.outer};
      TIP_ASSIGN_OR_RETURN(bool pass,
                           PredicatePasses(*predicate_, tuple, *state.eval));
      if (!pass) continue;
    }
    return true;
  }
}

void NestedLoopJoinNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  outer_->Explain(depth + 1, out);
  inner_->Explain(depth + 1, out);
}

// -- HashJoinNode ------------------------------------------------------------

Status HashJoinNode::Open(ExecState& state) {
  build_rows_.clear();
  build_index_.clear();
  probe_valid_ = false;
  current_matches_.clear();
  next_match_ = 0;

  TIP_RETURN_IF_ERROR(right_->Open(state));
  Row row;
  for (;;) {
    TIP_RETURN_IF_ERROR(state.eval->CheckGuard());
    Result<bool> has_row = right_->Next(state, &row);
    if (!has_row.ok()) return has_row.status();
    if (!*has_row) break;
    TupleCtx tuple{&row, state.outer};
    TIP_ASSIGN_OR_RETURN(bool joinable,
                         EvalJoinKeys(right_keys_, tuple, *state.eval,
                                      &key_slots_, &keys_));
    if (!joinable) continue;
    Result<uint64_t> h = HashDatums(DatumRefs(keys_.data(), keys_.size()),
                                    *types_, state.eval->tx);
    if (!h.ok()) return h.status();
    TIP_RETURN_IF_ERROR(
        state.eval->ReserveMemory(exec_util::ApproxRowBytes(row)));
    build_index_.emplace(*h, build_rows_.size());
    build_rows_.push_back(std::move(row));
  }
  return left_->Open(state);
}

Result<bool> HashJoinNode::KeysEqual(const Row& left_row,
                                     const Row& right_row,
                                     ExecState& state) const {
  TupleCtx left_tuple{&left_row, state.outer};
  TupleCtx right_tuple{&right_row, state.outer};
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    Datum left_slot, right_slot;
    TIP_ASSIGN_OR_RETURN(const Datum* lv,
                         left_keys_[i]->Eval(left_tuple, *state.eval,
                                             &left_slot));
    TIP_ASSIGN_OR_RETURN(const Datum* rv,
                         right_keys_[i]->Eval(right_tuple, *state.eval,
                                              &right_slot));
    if (lv->is_null() || rv->is_null()) return false;
    TIP_ASSIGN_OR_RETURN(int c, types_->Compare(*lv, *rv, state.eval->tx));
    if (c != 0) return false;
  }
  return true;
}

Result<bool> HashJoinNode::Next(ExecState& state, Row* out) {
  for (;;) {
    TIP_RETURN_IF_ERROR(state.eval->CheckGuard());
    if (!probe_valid_) {
      TIP_ASSIGN_OR_RETURN(bool has_row, left_->Next(state, &probe_row_));
      if (!has_row) return false;
      probe_valid_ = true;
      current_matches_.clear();
      next_match_ = 0;

      TupleCtx tuple{&probe_row_, state.outer};
      TIP_ASSIGN_OR_RETURN(bool joinable,
                           EvalJoinKeys(left_keys_, tuple, *state.eval,
                                        &key_slots_, &keys_));
      if (joinable) {
        TIP_ASSIGN_OR_RETURN(
            uint64_t h, HashDatums(DatumRefs(keys_.data(), keys_.size()),
                                   *types_, state.eval->tx));
        auto [begin, end] = build_index_.equal_range(h);
        for (auto it = begin; it != end; ++it) {
          current_matches_.push_back(it->second);
        }
      }
    }
    while (next_match_ < current_matches_.size()) {
      const Row& build_row = build_rows_[current_matches_[next_match_++]];
      TIP_ASSIGN_OR_RETURN(bool equal,
                           KeysEqual(probe_row_, build_row, state));
      if (!equal) continue;
      out->clear();
      out->reserve(probe_row_.size() + build_row.size());
      out->insert(out->end(), probe_row_.begin(), probe_row_.end());
      out->insert(out->end(), build_row.begin(), build_row.end());
      if (residual_ != nullptr) {
        TupleCtx tuple{out, state.outer};
        TIP_ASSIGN_OR_RETURN(bool pass,
                             PredicatePasses(*residual_, tuple,
                                             *state.eval));
        if (!pass) continue;
      }
      return true;
    }
    probe_valid_ = false;
  }
}

void HashJoinNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  left_->Explain(depth + 1, out);
  right_->Explain(depth + 1, out);
}

// -- IntervalJoinProbe -------------------------------------------------------

Status IntervalJoinProbe::FindCandidates(
    const IntervalIndexView& index, const TupleCtx& left, EvalContext& ctx,
    std::vector<RowId>* candidates) const {
  candidates->clear();
  Datum slot;
  TIP_ASSIGN_OR_RETURN(const Datum* value, probe->Eval(left, ctx, &slot));
  if (!value->is_null()) index.FindOverlapping(key_fn(*value), candidates);
  return Status::OK();
}

std::string IntervalJoinProbe::Target() const {
  return table->name() + "." + table->columns()[column].name;
}

void IntervalJoinProbe::Explain(int depth, std::string* out) const {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append("IndexProbe(" + table->name() + ")\n");
  std::optional<IndexStatsSnapshot> stats = table->IntervalIndexStats(column);
  if (stats.has_value()) {
    out->append(static_cast<size_t>(depth) * 2, ' ');
    out->append("IndexStats(" + FormatMetrics(IndexMetrics(*stats)) + ")\n");
  }
}

// -- IntervalJoinNode --------------------------------------------------------

Status IntervalJoinNode::Open(ExecState& state) {
  TIP_RETURN_IF_ERROR(left_->Open(state));
  left_row_ = nullptr;
  matches_.clear();
  next_match_ = 0;
  Result<IntervalIndexView> index =
      probe_.table->GetIntervalIndex(probe_.column, state.eval->tx);
  if (!index.ok()) return index.status();
  index_ = std::move(*index);
  return Status::OK();
}

Result<bool> IntervalJoinNode::Next(ExecState& state, Row* out) {
  for (;;) {
    TIP_RETURN_IF_ERROR(state.eval->CheckGuard());
    if (left_row_ == nullptr) {
      // The borrowed left row stays valid while we drain its matches:
      // the contract only invalidates it at the next call into left_.
      TIP_ASSIGN_OR_RETURN(left_row_, left_->NextBorrowed(state));
      if (left_row_ == nullptr) return false;
      next_match_ = 0;
      TIP_RETURN_IF_ERROR(probe_.FindCandidates(
          index_, TupleCtx{left_row_, state.outer}, *state.eval, &matches_));
    }
    while (next_match_ < matches_.size()) {
      TIP_ASSIGN_OR_RETURN(bool joined,
                           probe_.Join(*left_row_, matches_[next_match_++],
                                       state.outer, *state.eval, out));
      if (joined) return true;
    }
    left_row_ = nullptr;
  }
}

void IntervalJoinNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  left_->Explain(depth + 1, out);
  probe_.Explain(depth + 1, out);
}

// -- SortNode ----------------------------------------------------------------

Status SortNode::Open(ExecState& state) {
  rows_.clear();
  next_ = 0;
  TIP_RETURN_IF_ERROR(child_->Open(state));
  Row row;
  for (;;) {
    TIP_RETURN_IF_ERROR(state.eval->CheckGuard());
    Result<bool> has_row = child_->Next(state, &row);
    if (!has_row.ok()) return has_row.status();
    if (!*has_row) break;
    TIP_RETURN_IF_ERROR(
        state.eval->ReserveMemory(exec_util::ApproxRowBytes(row)));
    rows_.push_back(std::move(row));
  }

  // Precompute sort keys so comparison failures surface before sorting.
  // Row i's key k is keys[i * nk + k]: borrowed from the buffered row
  // (rows_ no longer grows) or computed into the matching slot.
  const size_t nk = keys_.size();
  std::vector<Datum> key_slots(rows_.size() * nk);
  std::vector<const Datum*> keys(rows_.size() * nk);
  for (size_t i = 0; i < rows_.size(); ++i) {
    TupleCtx tuple{&rows_[i], state.outer};
    for (size_t k = 0; k < nk; ++k) {
      TIP_ASSIGN_OR_RETURN(keys[i * nk + k],
                           keys_[k].expr->Eval(tuple, *state.eval,
                                               &key_slots[i * nk + k]));
    }
  }
  std::vector<size_t> order(rows_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  Status sort_status;  // std::sort comparators cannot propagate errors
  const TxContext tx = state.eval->tx;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) {
                     if (!sort_status.ok()) return false;
                     for (size_t k = 0; k < nk; ++k) {
                       const Datum& va = *keys[a * nk + k];
                       const Datum& vb = *keys[b * nk + k];
                       const bool na = va.is_null(), nb = vb.is_null();
                       if (na || nb) {
                         if (na == nb) continue;
                         return nb;  // NULLs last
                       }
                       Result<int> c = types_->Compare(va, vb, tx);
                       if (!c.ok()) {
                         sort_status = c.status();
                         return false;
                       }
                       if (*c != 0) {
                         return keys_[k].descending ? *c > 0 : *c < 0;
                       }
                     }
                     return false;
                   });
  TIP_RETURN_IF_ERROR(sort_status);

  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (size_t i : order) sorted.push_back(std::move(rows_[i]));
  rows_ = std::move(sorted);
  return Status::OK();
}

Result<bool> SortNode::Next(ExecState&, Row* out) {
  if (next_ >= rows_.size()) return false;
  *out = rows_[next_++];
  return true;
}

void SortNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  child_->Explain(depth + 1, out);
}

// -- AggregateNode -----------------------------------------------------------

Result<AggregateNode::Group*> AggregateNode::FindOrCreateGroup(
    DatumRefs keys, ExecState& state) {
  TIP_ASSIGN_OR_RETURN(uint64_t h,
                       HashDatums(keys, *types_, state.eval->tx));
  auto [begin, end] = group_index_.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    TIP_ASSIGN_OR_RETURN(
        bool equal,
        DatumsEqual(groups_[it->second].keys, keys, *types_,
                    state.eval->tx));
    if (equal) return &groups_[it->second];
  }
  // A new group copies its keys out of the borrowed input, and buffers
  // them plus one aggregate state apiece.
  Group group;
  group.keys.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) group.keys.push_back(keys[i]);
  TIP_RETURN_IF_ERROR(state.eval->ReserveMemory(
      exec_util::ApproxRowBytes(group.keys) + aggregates_.size() * 64));
  group.states.reserve(aggregates_.size());
  for (const AggregateSpec& spec : aggregates_) {
    group.states.push_back(spec.agg.def->make_state());
  }
  group_index_.emplace(h, groups_.size());
  groups_.push_back(std::move(group));
  return &groups_.back();
}

Status AggregateNode::Open(ExecState& state) {
  groups_.clear();
  group_index_.clear();
  results_.clear();
  next_ = 0;

  TIP_RETURN_IF_ERROR(child_->Open(state));
  // A global aggregate (no GROUP BY) has exactly one group, even for
  // empty input: made up front and stepped directly, with no key to
  // hash or compare per row.
  Group* global = nullptr;
  if (group_exprs_.empty()) {
    TIP_ASSIGN_OR_RETURN(global, FindOrCreateGroup(DatumRefs(nullptr, 0),
                                                   state));
  }
  // The group keys of the current row, borrowed (computed ones in
  // key_slots); FindOrCreateGroup copies them only for a new group.
  std::vector<Datum> key_slots(group_exprs_.size());
  std::vector<const Datum*> keys(group_exprs_.size());
  for (;;) {
    TIP_RETURN_IF_ERROR(state.eval->CheckGuard());
    TIP_ASSIGN_OR_RETURN(const Row* row, child_->NextBorrowed(state));
    if (row == nullptr) break;
    TupleCtx tuple{row, state.outer};

    Group* group = global;
    if (group == nullptr) {
      for (size_t i = 0; i < group_exprs_.size(); ++i) {
        TIP_ASSIGN_OR_RETURN(keys[i], group_exprs_[i]->Eval(
                                          tuple, *state.eval, &key_slots[i]));
      }
      TIP_ASSIGN_OR_RETURN(
          group,
          FindOrCreateGroup(DatumRefs(keys.data(), keys.size()), state));
    }
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      TIP_RETURN_IF_ERROR(StepAggregate(aggregates_[i], tuple, *state.eval,
                                        *group->states[i]));
    }
  }

  results_.reserve(groups_.size());
  for (Group& group : groups_) {
    Row out;
    out.reserve(group.keys.size() + aggregates_.size());
    for (Datum& key : group.keys) out.push_back(std::move(key));
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      Result<Datum> v = group.states[i]->Final(*state.eval);
      if (!v.ok()) return v.status();
      out.push_back(std::move(*v));
    }
    results_.push_back(std::move(out));
  }
  return Status::OK();
}

Result<bool> AggregateNode::Next(ExecState&, Row* out) {
  if (next_ >= results_.size()) return false;
  *out = results_[next_++];
  return true;
}

void AggregateNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  child_->Explain(depth + 1, out);
}

// -- DistinctNode ------------------------------------------------------------

Status DistinctNode::Open(ExecState& state) {
  seen_rows_.clear();
  seen_index_.clear();
  return child_->Open(state);
}

Result<bool> DistinctNode::Next(ExecState& state, Row* out) {
  for (;;) {
    TIP_RETURN_IF_ERROR(state.eval->CheckGuard());
    TIP_ASSIGN_OR_RETURN(const Row* row, child_->NextBorrowed(state));
    if (row == nullptr) return false;
    TIP_ASSIGN_OR_RETURN(uint64_t h,
                         HashDatums(*row, *types_, state.eval->tx));
    bool duplicate = false;
    auto [begin, end] = seen_index_.equal_range(h);
    for (auto it = begin; it != end; ++it) {
      TIP_ASSIGN_OR_RETURN(bool equal,
                           DatumsEqual(seen_rows_[it->second], *row,
                                       *types_, state.eval->tx));
      if (equal) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    TIP_RETURN_IF_ERROR(
        state.eval->ReserveMemory(exec_util::ApproxRowBytes(*row)));
    seen_index_.emplace(h, seen_rows_.size());
    seen_rows_.push_back(*row);
    *out = *row;
    return true;
  }
}

void DistinctNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  child_->Explain(depth + 1, out);
}

// -- ConcatNode --------------------------------------------------------------

Status ConcatNode::Open(ExecState& state) {
  current_ = 0;
  for (const ExecNodePtr& child : children_) {
    TIP_RETURN_IF_ERROR(child->Open(state));
  }
  return Status::OK();
}

Result<bool> ConcatNode::Next(ExecState& state, Row* out) {
  while (current_ < children_.size()) {
    TIP_ASSIGN_OR_RETURN(bool has_row,
                         children_[current_]->Next(state, out));
    if (has_row) return true;
    ++current_;
  }
  return false;
}

void ConcatNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  for (const ExecNodePtr& child : children_) {
    child->Explain(depth + 1, out);
  }
}

// -- SetOpNode ---------------------------------------------------------------

Status SetOpNode::Open(ExecState& state) {
  right_rows_.clear();
  right_index_.clear();
  emitted_rows_.clear();
  emitted_index_.clear();
  TIP_RETURN_IF_ERROR(right_->Open(state));
  Row row;
  for (;;) {
    TIP_RETURN_IF_ERROR(state.eval->CheckGuard());
    Result<bool> has_row = right_->Next(state, &row);
    if (!has_row.ok()) return has_row.status();
    if (!*has_row) break;
    Result<uint64_t> h = HashDatums(row, *types_, state.eval->tx);
    if (!h.ok()) return h.status();
    TIP_RETURN_IF_ERROR(
        state.eval->ReserveMemory(exec_util::ApproxRowBytes(row)));
    right_index_.emplace(*h, right_rows_.size());
    right_rows_.push_back(std::move(row));
  }
  return left_->Open(state);
}

Result<bool> SetOpNode::Contains(const Row& row, uint64_t hash,
                                 ExecState& state) const {
  auto [begin, end] = right_index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    TIP_ASSIGN_OR_RETURN(bool equal,
                         DatumsEqual(right_rows_[it->second], row,
                                     *types_, state.eval->tx));
    if (equal) return true;
  }
  return false;
}

Result<bool> SetOpNode::Next(ExecState& state, Row* out) {
  for (;;) {
    TIP_RETURN_IF_ERROR(state.eval->CheckGuard());
    TIP_ASSIGN_OR_RETURN(bool has_row, left_->Next(state, out));
    if (!has_row) return false;
    TIP_ASSIGN_OR_RETURN(uint64_t h,
                         HashDatums(*out, *types_, state.eval->tx));
    // Distinct-set semantics: suppress duplicates of already-emitted
    // rows.
    bool seen = false;
    auto [begin, end] = emitted_index_.equal_range(h);
    for (auto it = begin; it != end; ++it) {
      TIP_ASSIGN_OR_RETURN(bool equal,
                           DatumsEqual(emitted_rows_[it->second], *out,
                                       *types_, state.eval->tx));
      if (equal) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    TIP_ASSIGN_OR_RETURN(bool in_right, Contains(*out, h, state));
    if (in_right != (op_ == Op::kIntersect)) continue;
    TIP_RETURN_IF_ERROR(
        state.eval->ReserveMemory(exec_util::ApproxRowBytes(*out)));
    emitted_index_.emplace(h, emitted_rows_.size());
    emitted_rows_.push_back(*out);
    return true;
  }
}

void SetOpNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  left_->Explain(depth + 1, out);
  right_->Explain(depth + 1, out);
}

// -- LimitNode ---------------------------------------------------------------

Status LimitNode::Open(ExecState& state) {
  skipped_ = 0;
  returned_ = 0;
  return child_->Open(state);
}

Result<bool> LimitNode::Next(ExecState& state, Row* out) {
  if (limit_.has_value() && returned_ >= *limit_) return false;
  for (;;) {
    TIP_ASSIGN_OR_RETURN(bool has_row, child_->Next(state, out));
    if (!has_row) return false;
    if (skipped_ < offset_) {
      ++skipped_;
      continue;
    }
    ++returned_;
    return true;
  }
}

void LimitNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  child_->Explain(depth + 1, out);
}

}  // namespace tip::engine
