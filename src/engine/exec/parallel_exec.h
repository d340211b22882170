#ifndef TIP_ENGINE_EXEC_PARALLEL_EXEC_H_
#define TIP_ENGINE_EXEC_PARALLEL_EXEC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/catalog/catalog.h"
#include "engine/exec/exec_node.h"

namespace tip::engine {

/// Pages per morsel: 8 pages = up to 2048 rows. Small enough that
/// workers load-balance across skewed filters, large enough that the
/// claim (one atomic add) is noise next to the per-row work.
inline constexpr uint32_t kPagesPerMorsel = 8;

/// A morsel run uses more than one worker only over a table whose live
/// rows fill at least two morsels (4,096 rows): below that there is at
/// most one morsel's work to split, and the fork-join costs more than it
/// saves.
inline constexpr size_t kParallelMinRows =
    2 * size_t{kPagesPerMorsel} * kRowsPerPage;

/// The worker count of one morsel run, chosen when it starts: one while
/// the table's `live_rows` fill fewer than two morsels; otherwise the
/// session's `cap`, never more than the machine's `cores` or the
/// table's `morsels`. The run then trims it to the shared pool's free
/// threads, so statements running at once never fan out past the pool.
size_t ChooseWorkers(size_t cap, size_t live_rows, size_t morsels,
                     size_t cores);

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

/// Base of the morsel-driven operators. Open carves `table`'s heap into
/// page-range morsels that workers claim atomically; each worker runs
/// the pushed filter over its morsels and hands the surviving rows to
/// the operator's per-row step. The scaffolding (worker count, guard
/// checks, memory charges, the serial retry, counters) lives once, in
/// the morsel driver that RunMorsels and ScanForMutation share; a
/// subclass supplies only its step and its output. `workers` is the
/// session's cap: each run picks its own count (ChooseWorkers), so one
/// planned tree serves a table of any size, and a run with one worker
/// scans inline on the calling thread.
class MorselNode : public ExecNode {
 public:
  /// Prints the node, its Parallel/ParallelStats lines and the morsel
  /// scan it reads.
  void Explain(int depth, std::string* out) const override;

 protected:
  MorselNode(const Table* table, BoundExprPtr filter, size_t workers,
             ParallelStats* stats)
      : table_(table),
        filter_(std::move(filter)),
        workers_(workers),
        stats_(stats) {}

  /// Runs one parallel scan of table_ (defined in parallel_exec.cc,
  /// the only place it is instantiated). `reset(workers, morsels)`
  /// clears the operator's output before each attempt;
  /// `step(worker, id, tuple)` consumes one row that passed filter_ and
  /// returns how many rows it emitted.
  template <typename Reset, typename Step>
  Status RunMorsels(ExecState& state, Reset reset, Step step);

  const Table* table_;
  BoundExprPtr filter_;  // may be null
  size_t workers_;
  ParallelStats* stats_;  // may be null
};

/// Morsel-parallel scan with its pushed filter (a bare scan stays a
/// serial SeqScan: collecting row ids does not pay on its own).
/// Surviving rows are buffered as RowIds in morsel order, so output
/// order matches the serial SeqScan+Filter plan, and handed out
/// borrowed from the heap.
class ParallelScanNode final : public MorselNode {
 public:
  ParallelScanNode(const Table* table, BoundExprPtr filter, size_t workers,
                   ParallelStats* stats)
      : MorselNode(table, std::move(filter), workers, stats) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  Result<const Row*> NextBorrowed(ExecState&) override;
  size_t output_arity() const override { return table_->columns().size(); }
  std::string DebugName() const override {
    return "ParallelSeqScan(" + table_->name() + ")";
  }

 private:
  std::vector<RowId> matches_;
  size_t next_ = 0;
};

/// Fused morsel scan + filter + global aggregation (no GROUP BY): every
/// worker steps its own vector of AggregateStates, the partials are
/// merged by position through AggregateState::Merge, and Final runs
/// once. Only planned when every aggregate's def is `mergeable`.
class ParallelAggregateNode final : public MorselNode {
 public:
  ParallelAggregateNode(const Table* table, BoundExprPtr filter,
                        std::vector<AggregateSpec> aggregates,
                        size_t workers, ParallelStats* stats)
      : MorselNode(table, std::move(filter), workers, stats),
        aggregates_(std::move(aggregates)) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  size_t output_arity() const override { return aggregates_.size(); }
  std::string DebugName() const override {
    return "ParallelHashAggregate(" + table_->name() + ")";
  }

 private:
  std::vector<AggregateSpec> aggregates_;

  Row result_;
  bool emitted_ = true;
};

/// Morsel-driven interval index join: workers scan left-table morsels,
/// run the pushed left filter, and probe the shared (immutable)
/// IntervalIndexView concurrently; joined rows are buffered per morsel
/// so output order matches the serial IntervalJoinNode over a SeqScan.
class ParallelIntervalJoinNode final : public MorselNode {
 public:
  ParallelIntervalJoinNode(const Table* left_table, BoundExprPtr left_filter,
                           IntervalJoinProbe probe, size_t workers,
                           ParallelStats* stats)
      : MorselNode(left_table, std::move(left_filter), workers, stats),
        probe_(std::move(probe)) {}

  Status Open(ExecState& state) override;
  Result<bool> Next(ExecState& state, Row* out) override;
  Result<const Row*> NextBorrowed(ExecState&) override;
  size_t output_arity() const override {
    return table_->columns().size() + probe_.table->columns().size();
  }
  std::string DebugName() const override {
    return "ParallelIntervalIndexJoin(" + probe_.Target() + ")";
  }
  void Explain(int depth, std::string* out) const override;

 private:
  IntervalJoinProbe probe_;

  std::vector<Row> results_;
  size_t next_ = 0;
};

/// What phase 1 of an UPDATE or DELETE found: the rows the statement
/// changes, in scan order, each with its live ordinal (its position
/// among the table's live rows, the address the WAL records) and, for
/// an UPDATE, its new contents.
struct MutationScan {
  std::vector<RowId> ids;
  std::vector<uint64_t> ordinals;
  std::vector<Row> rows;  // UPDATE only, parallel to `ids`
};

/// Phase 1 of an UPDATE (`sets` non-null: column index and value of each
/// SET) or a DELETE over `table`, through the morsel driver: up to `cap`
/// workers run `where` (may be null) and the SET expressions over their
/// morsels and buffer what they find per morsel; a morsel's first
/// ordinal is the sum of the live rows of the morsels before it. The
/// buffers concatenate in morsel order, so the result equals the serial
/// scan's. Records the run in `stats` when non-null.
Result<MutationScan> ScanForMutation(
    const Table& table, const BoundExpr* where,
    const std::vector<std::pair<size_t, BoundExprPtr>>* sets, size_t cap,
    ParallelStats* stats, EvalContext& eval);

}  // namespace tip::engine

#endif  // TIP_ENGINE_EXEC_PARALLEL_EXEC_H_
