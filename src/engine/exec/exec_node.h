#ifndef TIP_ENGINE_EXEC_EXEC_NODE_H_
#define TIP_ENGINE_EXEC_EXEC_NODE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/catalog/aggregate_registry.h"
#include "engine/catalog/catalog.h"
#include "engine/exec/bound_expr.h"
#include "engine/exec/row_utils.h"
#include "engine/types/datum.h"
#include "engine/types/eval_context.h"
#include "engine/types/type.h"

namespace tip::engine {

/// Runtime state threaded through a plan: the statement's evaluation
/// context plus the enclosing query's tuple for correlated subplans.
struct ExecState {
  EvalContext* eval = nullptr;
  const TupleCtx* outer = nullptr;
};

/// A volcano-style physical operator. `Open` fully (re)initializes the
/// node, so a plan can be executed repeatedly (correlated EXISTS
/// subplans rely on this). `Next` produces one output row at a time.
class ExecNode {
 public:
  virtual ~ExecNode() = default;

  ExecNode(const ExecNode&) = delete;
  ExecNode& operator=(const ExecNode&) = delete;

  virtual Status Open(ExecState& state) = 0;
  /// Returns true and fills `out` with the next row, or false at end.
  virtual Result<bool> Next(ExecState& state, Row* out) = 0;

  /// Like Next, but lends the row instead of copying it: the returned
  /// pointer (nullptr at end of stream) is valid only until the next
  /// Open/Next/NextBorrowed call on this node. Scan-shaped operators
  /// override this to hand out pointers straight into heap storage;
  /// the default adapter materializes into an internal buffer, so every
  /// node supports borrowing. Consumers that only read the row (filter,
  /// project, aggregate input) should prefer this over Next.
  virtual Result<const Row*> NextBorrowed(ExecState& state);

  /// Number of columns this node emits.
  virtual size_t output_arity() const = 0;

  /// One-line operator description; `Explain` indents children.
  virtual std::string DebugName() const = 0;
  virtual void Explain(int depth, std::string* out) const;

 protected:
  ExecNode() = default;

 private:
  Row borrow_buf_;  // backing storage for the default NextBorrowed
};

using ExecNodePtr = std::unique_ptr<ExecNode>;

/// Produces exactly one empty row: the input of a FROM-less SELECT.
class SingleRowNode final : public ExecNode {
 public:
  SingleRowNode() = default;

  Status Open(ExecState&) override;
  Result<bool> Next(ExecState&, Row* out) override;
  size_t output_arity() const override { return 0; }
  std::string DebugName() const override { return "SingleRow"; }

 private:
  bool done_ = false;
};

/// Full scan of a base table's heap in row-id order.
class SeqScanNode final : public ExecNode {
 public:
  explicit SeqScanNode(const Table* table)
      : table_(table), cursor_(table->heap().Scan()) {}

  Status Open(ExecState&) override;
  Result<bool> Next(ExecState&, Row* out) override;
  Result<const Row*> NextBorrowed(ExecState&) override;
  size_t output_arity() const override { return table_->columns().size(); }
  std::string DebugName() const override {
    return "SeqScan(" + table_->name() + ")";
  }

 private:
  const Table* table_;
  HeapTable::Cursor cursor_;
};

/// Index scan: probes the interval index on `column` with the key of
/// the probe expression's value, yielding only rows whose keys overlap
/// it at the statement's NOW. Callers add a residual filter for exact
/// semantics (an Element's key over-approximates its gaps) and for the
/// grounding errors a scan would report (see
/// IntervalIndexView::FindOverlapping).
class IntervalScanNode final : public ExecNode {
 public:
  IntervalScanNode(const Table* table, size_t column, BoundExprPtr probe,
                   IntervalKeyFn probe_key_fn)
      : table_(table),
        column_(column),
        probe_(std::move(probe)),
        probe_key_fn_(std::move(probe_key_fn)) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState&, Row* out) override;
  Result<const Row*> NextBorrowed(ExecState&) override;
  size_t output_arity() const override { return table_->columns().size(); }
  std::string DebugName() const override {
    return "IntervalIndexScan(" + table_->name() + "." +
           table_->columns()[column_].name + ")";
  }
  void Explain(int depth, std::string* out) const override;

 private:
  const Table* table_;
  size_t column_;
  BoundExprPtr probe_;
  IntervalKeyFn probe_key_fn_;

  std::vector<RowId> matches_;
  size_t next_ = 0;
};

/// Filters child rows by a boolean predicate (NULL = reject).
class FilterNode final : public ExecNode {
 public:
  FilterNode(ExecNodePtr child, BoundExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  Result<const Row*> NextBorrowed(ExecState& state) override;
  size_t output_arity() const override { return child_->output_arity(); }
  std::string DebugName() const override { return "Filter"; }
  void Explain(int depth, std::string* out) const override;

 private:
  ExecNodePtr child_;
  BoundExprPtr predicate_;
};

/// Computes one output column per expression.
class ProjectNode final : public ExecNode {
 public:
  ProjectNode(ExecNodePtr child, std::vector<BoundExprPtr> exprs)
      : child_(std::move(child)), exprs_(std::move(exprs)) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override { return exprs_.size(); }
  std::string DebugName() const override { return "Project"; }
  void Explain(int depth, std::string* out) const override;

 private:
  ExecNodePtr child_;
  std::vector<BoundExprPtr> exprs_;
};

/// Keeps only the first `arity` columns (drops hidden sort keys).
class PrefixNode final : public ExecNode {
 public:
  PrefixNode(ExecNodePtr child, size_t arity)
      : child_(std::move(child)), arity_(arity) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override { return arity_; }
  std::string DebugName() const override { return "Prefix"; }
  void Explain(int depth, std::string* out) const override;

 private:
  ExecNodePtr child_;
  size_t arity_;
};

/// Tuple-at-a-time nested-loop join with an optional join predicate.
/// The inner child is fully re-opened for every outer row.
class NestedLoopJoinNode final : public ExecNode {
 public:
  NestedLoopJoinNode(ExecNodePtr outer, ExecNodePtr inner,
                     BoundExprPtr predicate)
      : outer_(std::move(outer)),
        inner_(std::move(inner)),
        predicate_(std::move(predicate)) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override {
    return outer_->output_arity() + inner_->output_arity();
  }
  std::string DebugName() const override { return "NestedLoopJoin"; }
  void Explain(int depth, std::string* out) const override;

 private:
  ExecNodePtr outer_;
  ExecNodePtr inner_;
  BoundExprPtr predicate_;  // may be null (cross product)

  Row outer_row_;
  bool outer_valid_ = false;
};

/// Hash equijoin: builds on the right child, probes with the left.
/// Key expressions evaluate against each side's own row; NULL keys never
/// match. A residual predicate evaluates against the combined row.
class HashJoinNode final : public ExecNode {
 public:
  HashJoinNode(ExecNodePtr left, ExecNodePtr right,
               std::vector<BoundExprPtr> left_keys,
               std::vector<BoundExprPtr> right_keys,
               BoundExprPtr residual, const TypeRegistry* types)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)),
        types_(types) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override {
    return left_->output_arity() + right_->output_arity();
  }
  std::string DebugName() const override { return "HashJoin"; }
  void Explain(int depth, std::string* out) const override;

 private:
  ExecNodePtr left_;
  ExecNodePtr right_;
  std::vector<BoundExprPtr> left_keys_;
  std::vector<BoundExprPtr> right_keys_;
  BoundExprPtr residual_;  // may be null
  const TypeRegistry* types_;

  std::vector<Row> build_rows_;
  std::unordered_multimap<uint64_t, size_t> build_index_;
  Row probe_row_;
  bool probe_valid_ = false;
  std::vector<size_t> current_matches_;
  size_t next_match_ = 0;
  // The keys of the row being hashed, borrowed; computed ones live in
  // key_slots_.
  std::vector<Datum> key_slots_;
  std::vector<const Datum*> keys_;

  Result<bool> KeysEqual(const Row& left_row, const Row& right_row,
                         ExecState& state) const;
};

/// The right side of an interval index join and the per-left-row work
/// that the serial and the morsel-driven join share: probe the right
/// table's interval index with the bounding interval of the left row's
/// probe value, then fetch each candidate and keep the combined rows
/// the residual accepts. The probe over-approximates `overlaps` (an
/// Element's bounding period covers its gaps), so the residual must
/// carry the exact predicate.
struct IntervalJoinProbe {
  const Table* table = nullptr;  // the right table
  size_t column = 0;             // its interval-indexed column
  BoundExprPtr probe;            // evaluated over the left row
  IntervalKeyFn key_fn;
  BoundExprPtr residual;  // over the combined row; may be null

  /// Replaces *candidates with the right rows `index` finds for the
  /// probe value of `left` (none when it is NULL; see
  /// IntervalIndexView::FindOverlapping).
  Status FindCandidates(const IntervalIndexView& index, const TupleCtx& left,
                        EvalContext& ctx,
                        std::vector<RowId>* candidates) const;
  /// Builds `left` ++ the candidate row into *out. False when the
  /// candidate has been deleted or the residual rejects the pair.
  /// Defined here so that the morsel join (parallel_exec.cc) inlines it
  /// as the serial join does: it runs once per index candidate, and as
  /// an out-of-line call it made the one-worker morsel join slower than
  /// the serial one on the paper's Q2.
  Result<bool> Join(const Row& left, RowId candidate, const TupleCtx* outer,
                    EvalContext& ctx, Row* out) const {
    const Row* right = table->heap().Get(candidate);
    if (right == nullptr) return false;
    out->clear();
    out->reserve(left.size() + right->size());
    out->insert(out->end(), left.begin(), left.end());
    out->insert(out->end(), right->begin(), right->end());
    if (residual == nullptr) return true;
    TupleCtx tuple{out, outer};
    return exec_util::PredicatePasses(*residual, tuple, ctx);
  }
  /// "table.column", for operator names.
  std::string Target() const;
  /// EXPLAIN's IndexProbe line and the index's IndexStats line.
  void Explain(int depth, std::string* out) const;
};

/// Index nested-loop join on a temporal overlap predicate: for every
/// left row, the probe expression's bounding interval is looked up in
/// the right table's interval index.
class IntervalJoinNode final : public ExecNode {
 public:
  IntervalJoinNode(ExecNodePtr left, IntervalJoinProbe probe)
      : left_(std::move(left)), probe_(std::move(probe)) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override {
    return left_->output_arity() + probe_.table->columns().size();
  }
  std::string DebugName() const override {
    return "IntervalIndexJoin(" + probe_.Target() + ")";
  }
  void Explain(int depth, std::string* out) const override;

 private:
  ExecNodePtr left_;
  IntervalJoinProbe probe_;

  IntervalIndexView index_;
  const Row* left_row_ = nullptr;  // borrowed from left_
  std::vector<RowId> matches_;
  size_t next_match_ = 0;
};

/// Materializing sort. Keys evaluate against child rows; NULLs sort
/// last regardless of direction.
class SortNode final : public ExecNode {
 public:
  struct Key {
    BoundExprPtr expr;
    bool descending = false;
  };

  SortNode(ExecNodePtr child, std::vector<Key> keys,
           const TypeRegistry* types)
      : child_(std::move(child)), keys_(std::move(keys)), types_(types) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState&, Row* out) override;
  size_t output_arity() const override { return child_->output_arity(); }
  std::string DebugName() const override { return "Sort"; }
  void Explain(int depth, std::string* out) const override;

 private:
  ExecNodePtr child_;
  std::vector<Key> keys_;
  const TypeRegistry* types_;

  std::vector<Row> rows_;
  size_t next_ = 0;
};

/// One aggregate computed by an AggregateNode.
struct AggregateSpec {
  ResolvedAggregate agg;
  BoundExprPtr arg;  // null for COUNT(*)
};

/// Feeds one input row to an aggregate: evaluates its argument over
/// `tuple` (borrowed), applies SQL strictness and the argument cast, and
/// steps `state`. COUNT(*) (no argument) counts the row.
Status StepAggregate(const AggregateSpec& spec, const TupleCtx& tuple,
                     EvalContext& ctx, AggregateState& state);

/// Hash aggregation. Output row = group-key values ++ aggregate
/// results. With no group keys, emits exactly one row even for empty
/// input (SQL global-aggregate semantics).
class AggregateNode final : public ExecNode {
 public:
  AggregateNode(ExecNodePtr child, std::vector<BoundExprPtr> group_exprs,
                std::vector<AggregateSpec> aggregates,
                const TypeRegistry* types)
      : child_(std::move(child)),
        group_exprs_(std::move(group_exprs)),
        aggregates_(std::move(aggregates)),
        types_(types) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override {
    return group_exprs_.size() + aggregates_.size();
  }
  std::string DebugName() const override { return "HashAggregate"; }
  void Explain(int depth, std::string* out) const override;

 private:
  struct Group {
    std::vector<Datum> keys;
    std::vector<std::unique_ptr<AggregateState>> states;
  };

  ExecNodePtr child_;
  std::vector<BoundExprPtr> group_exprs_;
  std::vector<AggregateSpec> aggregates_;
  const TypeRegistry* types_;

  std::vector<Group> groups_;
  std::unordered_multimap<uint64_t, size_t> group_index_;
  std::vector<Row> results_;
  size_t next_ = 0;

  Result<Group*> FindOrCreateGroup(DatumRefs keys, ExecState& state);
};

/// Hash-based duplicate elimination over whole rows.
class DistinctNode final : public ExecNode {
 public:
  DistinctNode(ExecNodePtr child, const TypeRegistry* types)
      : child_(std::move(child)), types_(types) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override { return child_->output_arity(); }
  std::string DebugName() const override { return "Distinct"; }
  void Explain(int depth, std::string* out) const override;

 private:
  ExecNodePtr child_;
  const TypeRegistry* types_;

  std::vector<Row> seen_rows_;
  std::unordered_multimap<uint64_t, size_t> seen_index_;
};

/// Concatenation of same-arity children, in order (UNION ALL).
class ConcatNode final : public ExecNode {
 public:
  explicit ConcatNode(std::vector<ExecNodePtr> children)
      : children_(std::move(children)) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override {
    return children_.front()->output_arity();
  }
  std::string DebugName() const override { return "Concat"; }
  void Explain(int depth, std::string* out) const override;

 private:
  std::vector<ExecNodePtr> children_;
  size_t current_ = 0;
};

/// INTERSECT / EXCEPT with SQL's distinct-set semantics: distinct left
/// rows that do (INTERSECT) or do not (EXCEPT) appear on the right.
class SetOpNode final : public ExecNode {
 public:
  enum class Op { kIntersect, kExcept };

  SetOpNode(Op op, ExecNodePtr left, ExecNodePtr right,
            const TypeRegistry* types)
      : op_(op),
        left_(std::move(left)),
        right_(std::move(right)),
        types_(types) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override { return left_->output_arity(); }
  std::string DebugName() const override {
    return op_ == Op::kIntersect ? "Intersect" : "Except";
  }
  void Explain(int depth, std::string* out) const override;

 private:
  Result<bool> Contains(const Row& row, uint64_t hash,
                        ExecState& state) const;

  Op op_;
  ExecNodePtr left_;
  ExecNodePtr right_;
  const TypeRegistry* types_;

  std::vector<Row> right_rows_;
  std::unordered_multimap<uint64_t, size_t> right_index_;
  std::vector<Row> emitted_rows_;
  std::unordered_multimap<uint64_t, size_t> emitted_index_;
};

/// LIMIT / OFFSET.
class LimitNode final : public ExecNode {
 public:
  LimitNode(ExecNodePtr child, std::optional<int64_t> limit, int64_t offset)
      : child_(std::move(child)), limit_(limit), offset_(offset) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override { return child_->output_arity(); }
  std::string DebugName() const override { return "Limit"; }
  void Explain(int depth, std::string* out) const override;

 private:
  ExecNodePtr child_;
  std::optional<int64_t> limit_;
  int64_t offset_;

  int64_t skipped_ = 0;
  int64_t returned_ = 0;
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_EXEC_EXEC_NODE_H_
