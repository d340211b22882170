#ifndef TIP_ENGINE_EXEC_PARALLEL_EXEC_H_
#define TIP_ENGINE_EXEC_PARALLEL_EXEC_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/catalog/catalog.h"
#include "engine/exec/exec_node.h"

namespace tip::engine {

/// Pages per morsel: 8 pages = up to 2048 rows. Small enough that
/// workers load-balance across skewed filters, large enough that the
/// claim (one atomic add) is noise next to the per-row work.
inline constexpr uint32_t kPagesPerMorsel = 8;

/// What one worker did during one parallel execution.
struct WorkerCounters {
  uint64_t morsels = 0;
  uint64_t rows_in = 0;   // live rows the worker scanned
  uint64_t rows_out = 0;  // rows it passed downstream (post-filter)
};

/// Counters from the most recent parallel run against one table.
/// EXPLAIN plans a fresh tree that is never executed, so the executable
/// nodes publish their per-worker counters here at the end of Open and
/// EXPLAIN reads them back — the same pattern the interval index uses
/// for the IndexStats line.
class ParallelStats {
 public:
  struct Snapshot {
    std::string op;  // DebugName of the node that recorded the run
    uint64_t runs = 0;
    std::vector<WorkerCounters> per_worker;

    std::string ToString() const;
  };

  void RecordRun(const std::string& op,
                 std::vector<WorkerCounters> per_worker);
  std::optional<Snapshot> Latest() const;

 private:
  mutable std::mutex mu_;
  Snapshot last_;
  bool any_ = false;
};

/// Session-owned map of per-table ParallelStats. Entries are never
/// removed, so the planner can hand stable plain pointers to plan nodes.
class ParallelStatsRegistry {
 public:
  ParallelStats* ForTable(const std::string& table);

 private:
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<ParallelStats>> by_table_;
};

/// Morsel-driven parallel scan: Open carves the heap into page-range
/// morsels claimed atomically by the workers, each of which runs the
/// pushed filter over its morsels. Surviving rows are buffered as
/// RowIds in morsel order (so output order matches the serial
/// SeqScan+Filter plan) and handed out borrowed from the heap.
class ParallelScanNode final : public ExecNode {
 public:
  ParallelScanNode(const Table* table, BoundExprPtr predicate,
                   size_t workers, ParallelStats* stats)
      : table_(table),
        predicate_(std::move(predicate)),
        workers_(workers),
        stats_(stats) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  Result<const Row*> NextBorrowed(ExecState&) override;
  size_t output_arity() const override { return table_->columns().size(); }
  std::string DebugName() const override {
    return "ParallelSeqScan(" + table_->name() + ")";
  }
  void Explain(int depth, std::string* out) const override;

 private:
  const Table* table_;
  BoundExprPtr predicate_;  // may be null (bare scan)
  size_t workers_;
  ParallelStats* stats_;  // may be null

  std::vector<RowId> matches_;
  size_t next_ = 0;
};

/// Fused morsel scan + filter + partial aggregation: every worker runs
/// the whole per-row pipeline over its morsels into a thread-local group
/// table, and the partials are folded together single-threaded via
/// AggregateState::Merge before Final. Only planned when every
/// aggregate's def is `mergeable`. Group output order is
/// merge-dependent (SQL makes no promise without ORDER BY).
class ParallelAggregateNode final : public ExecNode {
 public:
  ParallelAggregateNode(const Table* table, BoundExprPtr predicate,
                        std::vector<BoundExprPtr> group_exprs,
                        std::vector<AggregateSpec> aggregates,
                        const TypeRegistry* types, size_t workers,
                        ParallelStats* stats)
      : table_(table),
        predicate_(std::move(predicate)),
        group_exprs_(std::move(group_exprs)),
        aggregates_(std::move(aggregates)),
        types_(types),
        workers_(workers),
        stats_(stats) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override {
    return group_exprs_.size() + aggregates_.size();
  }
  std::string DebugName() const override {
    return "ParallelHashAggregate(" + table_->name() + ")";
  }
  void Explain(int depth, std::string* out) const override;

 private:
  struct Group {
    uint64_t hash = 0;
    std::vector<Datum> keys;
    std::vector<std::unique_ptr<AggregateState>> states;
  };
  /// One worker's private group table plus its run bookkeeping.
  struct LocalAgg {
    std::vector<Group> groups;
    std::unordered_multimap<uint64_t, size_t> index;
    WorkerCounters counters;
    Status status;
  };

  Result<Group*> FindOrCreateGroup(LocalAgg& local, uint64_t hash,
                                   DatumRefs keys, EvalContext& eval);
  Status ScanWorker(LocalAgg& local, MorselSource& source,
                    std::atomic<bool>& failed, const TupleCtx* outer,
                    EvalContext& eval);

  const Table* table_;
  BoundExprPtr predicate_;  // may be null
  std::vector<BoundExprPtr> group_exprs_;
  std::vector<AggregateSpec> aggregates_;
  const TypeRegistry* types_;
  size_t workers_;
  ParallelStats* stats_;  // may be null

  std::vector<Row> results_;
  size_t next_ = 0;
};

/// Morsel-driven interval index join: workers scan left-table morsels,
/// run the pushed left filter, and probe the shared (immutable)
/// IntervalIndexView concurrently; joined rows are buffered per morsel
/// so output order matches the serial IntervalJoinNode over a SeqScan.
class ParallelIntervalJoinNode final : public ExecNode {
 public:
  ParallelIntervalJoinNode(const Table* left_table,
                           BoundExprPtr left_predicate,
                           const Table* right_table, size_t right_column,
                           BoundExprPtr left_probe,
                           IntervalKeyFn probe_key_fn, BoundExprPtr residual,
                           size_t workers, ParallelStats* stats)
      : left_table_(left_table),
        left_predicate_(std::move(left_predicate)),
        right_table_(right_table),
        right_column_(right_column),
        left_probe_(std::move(left_probe)),
        probe_key_fn_(std::move(probe_key_fn)),
        residual_(std::move(residual)),
        workers_(workers),
        stats_(stats) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  Result<const Row*> NextBorrowed(ExecState&) override;
  size_t output_arity() const override {
    return left_table_->columns().size() + right_table_->columns().size();
  }
  std::string DebugName() const override {
    return "ParallelIntervalIndexJoin(" + right_table_->name() + "." +
           right_table_->columns()[right_column_].name + ")";
  }
  void Explain(int depth, std::string* out) const override;

 private:
  const Table* left_table_;
  BoundExprPtr left_predicate_;  // may be null
  const Table* right_table_;
  size_t right_column_;
  BoundExprPtr left_probe_;
  IntervalKeyFn probe_key_fn_;
  BoundExprPtr residual_;  // may be null
  size_t workers_;
  ParallelStats* stats_;  // may be null

  std::vector<Row> results_;
  size_t next_ = 0;
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_EXEC_PARALLEL_EXEC_H_
