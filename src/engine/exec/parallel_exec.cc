#include "engine/exec/parallel_exec.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "engine/exec/row_utils.h"

namespace tip::engine {

namespace {

// Degrades gracefully under pool saturation: never more workers than
// the shared pool can actually serve right now (+1 because the caller
// participates as worker 0). A statement forced below its chosen
// fan-out records a parallel_fallbacks event.
size_t FitToPool(size_t n, ExecGuard* guard) {
  if (n <= 1) return 1;
  const size_t avail = ThreadPool::Shared().ApproxAvailable() + 1;
  if (avail < n) {
    n = std::max<size_t>(avail, 1);
    if (guard != nullptr) guard->RecordParallelFallback();
  }
  return n;
}

// A worker body failure that is infrastructure (a thrown exception
// captured by the pool), not the query's own error: the statement
// retries serially instead of failing.
bool IsWorkerInfraFailure(const Status& s) {
  return s.code() == StatusCode::kInternal &&
         s.message().rfind("worker exception: ", 0) == 0;
}

// Deterministic infra-failure hook: a fired "parallel.worker" fault
// simulates a crashing worker body via a real exception, exercising the
// pool's exception capture and the serial-retry path. One-shot, so the
// retry does not re-fire.
void MaybeThrowWorkerFault() {
  Status f = fault::MaybeFail("parallel.worker");
  if (!f.ok()) throw std::runtime_error(std::string(f.message()));
}

void AppendIndent(int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
}

// One worker's side of a morsel run: its private evaluation context
// (sharing the statement's tx, guard and parameters), its counters, and
// the morsel it is scanning with the output buffered for it so far.
// Worker-local, so per-row counting never writes a shared cache line.
struct MorselWorker {
  size_t index;
  EvalContext eval;
  WorkerCounters counters;
  size_t morsel = 0;        // morsel number: page_begin / kPagesPerMorsel
  uint64_t morsel_row = 0;  // live rows of the morsel before the current
  size_t morsel_bytes = 0;  // charged to the memory budget at morsel end
};

// A per-morsel or per-worker buffer on its own cache line, so workers
// appending to neighbouring slots do not contend for one line.
template <typename T>
struct alignas(64) Slot {
  std::vector<T> items;
};

// Concatenates per-morsel output slots in morsel order, which is the
// serial scan's row order.
template <typename T>
std::vector<T> InMorselOrder(std::vector<Slot<T>>& per_morsel) {
  size_t total = 0;
  for (const Slot<T>& slot : per_morsel) total += slot.items.size();
  std::vector<T> out;
  out.reserve(total);
  for (Slot<T>& slot : per_morsel) {
    for (T& item : slot.items) out.push_back(std::move(item));
  }
  return out;
}

// The morsel driver: one parallel scan of `heap` with `filter` (may be
// null) run inside the workers. `reset(workers, morsels)` clears the
// caller's output before each attempt; `step(worker, id, tuple)`
// consumes one row that passed the filter and returns how many rows it
// emitted. On success `counters` holds what each worker of the
// attempt did and `morsel_rows` the live rows of each morsel.
struct MorselRun {
  const HeapTable* heap;
  const BoundExpr* filter;
  size_t cap;
  std::vector<WorkerCounters> counters;
  std::vector<uint64_t> morsel_rows;

  template <typename Reset, typename Step>
  Status Run(const EvalContext& parent, const TupleCtx* outer, Reset reset,
             Step step) {
    const size_t num_morsels =
        (heap->page_count() + kPagesPerMorsel - 1) / kPagesPerMorsel;

    auto body = [&](size_t w, MorselSource& source,
                    const std::atomic<bool>& failed) -> Status {
      MaybeThrowWorkerFault();
      MorselWorker worker{w, EvalContext(parent.tx, parent.guard), {}};
      worker.eval.params = parent.params;
      Morsel m;
      while (!failed.load(std::memory_order_relaxed) && source.Next(&m)) {
        TIP_RETURN_IF_ERROR(worker.eval.CheckGuardNow());
        ++worker.counters.morsels;
        worker.morsel = m.page_begin / kPagesPerMorsel;
        worker.morsel_bytes = 0;
        HeapTable::Cursor cursor = heap->ScanPages(m.page_begin, m.page_end);
        RowId id;
        const Row* row;
        for (worker.morsel_row = 0; cursor.Next(&id, &row);
             ++worker.morsel_row) {
          TIP_RETURN_IF_ERROR(worker.eval.CheckGuard());
          TupleCtx tuple{row, outer};
          if (filter != nullptr) {
            TIP_ASSIGN_OR_RETURN(
                bool pass,
                exec_util::PredicatePasses(*filter, tuple, worker.eval));
            if (!pass) continue;
          }
          TIP_ASSIGN_OR_RETURN(size_t emitted, step(worker, id, tuple));
          worker.counters.rows_out += emitted;
        }
        worker.counters.rows_in += worker.morsel_row;
        morsel_rows[worker.morsel] = worker.morsel_row;
        TIP_RETURN_IF_ERROR(worker.eval.ReserveMemory(worker.morsel_bytes));
      }
      counters[w] = worker.counters;
      return Status::OK();
    };

    auto attempt = [&](size_t n) -> Status {
      reset(n, num_morsels);
      counters.assign(n, WorkerCounters{});
      morsel_rows.assign(num_morsels, 0);
      MorselSource source(heap, kPagesPerMorsel);
      std::atomic<bool> failed{false};
      return ThreadPool::Shared().RunOnWorkers(n, [&](size_t w) -> Status {
        Status s = body(w, source, failed);
        if (!s.ok()) failed.store(true, std::memory_order_relaxed);
        return s;
      });
    };

    Status run = attempt(FitToPool(
        ChooseWorkers(cap, heap->row_count(), num_morsels,
                      ThreadPool::CoreCount()),
        parent.guard));
    // One serial retry even when the run already used one worker: that
    // body still runs through the pool's exception capture, and a
    // transient worker crash should not fail the statement at any width.
    if (IsWorkerInfraFailure(run)) {
      if (parent.guard != nullptr) parent.guard->RecordParallelFallback();
      run = attempt(1);
    }
    return run;
  }
};

}  // namespace

size_t ChooseWorkers(size_t cap, size_t live_rows, size_t morsels,
                     size_t cores) {
  if (cap <= 1 || live_rows < kParallelMinRows) return 1;
  return std::max<size_t>(std::min({cap, cores, morsels}), 1);
}

// -- ParallelStats -----------------------------------------------------------

std::string ParallelStats::Snapshot::ToString() const {
  std::string s = "runs=" + std::to_string(runs) +
                  " workers=" + std::to_string(per_worker.size());
  for (size_t i = 0; i < per_worker.size(); ++i) {
    const WorkerCounters& c = per_worker[i];
    s += " w" + std::to_string(i) + "{morsels=" + std::to_string(c.morsels) +
         " rows_in=" + std::to_string(c.rows_in) +
         " rows_out=" + std::to_string(c.rows_out) + "}";
  }
  return s;
}

void ParallelStats::RecordRun(const std::string& op,
                              std::vector<WorkerCounters> per_worker) {
  std::lock_guard<std::mutex> lock(mu_);
  last_.op = op;
  last_.runs += 1;
  last_.per_worker = std::move(per_worker);
  any_ = true;
}

std::optional<ParallelStats::Snapshot> ParallelStats::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!any_) return std::nullopt;
  return last_;
}

ParallelStats* ParallelStatsRegistry::ForTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<ParallelStats>& slot = by_table_[table];
  if (slot == nullptr) slot = std::make_unique<ParallelStats>();
  return slot.get();
}

// -- MorselNode --------------------------------------------------------------

template <typename Reset, typename Step>
Status MorselNode::RunMorsels(ExecState& state, Reset reset, Step step) {
  MorselRun run{&table_->heap(), filter_.get(), workers_, {}, {}};
  TIP_RETURN_IF_ERROR(run.Run(*state.eval, state.outer, reset, step));
  if (stats_ != nullptr) stats_->RecordRun(DebugName(), std::move(run.counters));
  return Status::OK();
}

void MorselNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  AppendIndent(depth + 1, out);
  out->append("Parallel(workers=" + std::to_string(workers_) +
              " pages_per_morsel=" + std::to_string(kPagesPerMorsel) +
              ")\n");
  std::optional<ParallelStats::Snapshot> snap =
      stats_ != nullptr ? stats_->Latest() : std::nullopt;
  if (snap.has_value()) {
    AppendIndent(depth + 1, out);
    out->append("ParallelStats(" + snap->ToString() + ")\n");
  }
  AppendIndent(depth + 1, out);
  out->append("MorselScan(" + table_->name() +
              (filter_ != nullptr ? ", filtered" : "") + ")\n");
}

// -- ParallelScanNode --------------------------------------------------------

Status ParallelScanNode::Open(ExecState& state) {
  matches_.clear();
  next_ = 0;
  std::vector<Slot<RowId>> per_morsel;
  TIP_RETURN_IF_ERROR(RunMorsels(
      state,
      [&](size_t, size_t morsels) { per_morsel.assign(morsels, {}); },
      [&](MorselWorker& w, RowId id, const TupleCtx&) -> Result<size_t> {
        per_morsel[w.morsel].items.push_back(id);
        w.morsel_bytes += sizeof(RowId);
        return size_t{1};
      }));
  matches_ = InMorselOrder(per_morsel);
  return Status::OK();
}

Result<bool> ParallelScanNode::Next(ExecState& state, Row* out) {
  TIP_ASSIGN_OR_RETURN(const Row* row, NextBorrowed(state));
  if (row == nullptr) return false;
  *out = *row;
  return true;
}

Result<const Row*> ParallelScanNode::NextBorrowed(ExecState&) {
  while (next_ < matches_.size()) {
    const Row* row = table_->heap().Get(matches_[next_++]);
    if (row != nullptr) return row;
  }
  return nullptr;
}

// -- ParallelAggregateNode ---------------------------------------------------

Status ParallelAggregateNode::Open(ExecState& state) {
  result_.clear();
  emitted_ = true;
  EvalContext& eval = *state.eval;
  // The buffered states, charged as the serial node charges its one
  // global group.
  TIP_RETURN_IF_ERROR(eval.ReserveMemory(exec_util::ApproxRowBytes(Row{}) +
                                         aggregates_.size() * 64));
  using States = std::vector<std::unique_ptr<AggregateState>>;
  auto fresh_states = [&] {
    States states;
    for (const AggregateSpec& spec : aggregates_) {
      states.push_back(spec.agg.def->make_state());
    }
    return states;
  };
  // partials[w]: worker w's states, made on its own thread at its first
  // row (states allocated side by side would share cache lines that
  // every Step writes).
  std::vector<States> partials;
  TIP_RETURN_IF_ERROR(RunMorsels(
      state,
      [&](size_t workers, size_t) {
        partials.clear();
        partials.resize(workers);
      },
      [&](MorselWorker& w, RowId, const TupleCtx& tuple) -> Result<size_t> {
        States& states = partials[w.index];
        if (states.empty()) states = fresh_states();
        for (size_t i = 0; i < aggregates_.size(); ++i) {
          TIP_RETURN_IF_ERROR(
              StepAggregate(aggregates_[i], tuple, w.eval, *states[i]));
        }
        return size_t{1};
      }));

  // Merge every worker's partials into fresh states by position (with no
  // input rows, the fresh states are the answer); Final runs once.
  States merged = fresh_states();
  for (States& states : partials) {
    for (size_t i = 0; i < states.size(); ++i) {
      TIP_RETURN_IF_ERROR(merged[i]->Merge(std::move(*states[i]), eval));
    }
  }
  result_.reserve(aggregates_.size());
  for (std::unique_ptr<AggregateState>& merged_state : merged) {
    TIP_ASSIGN_OR_RETURN(Datum v, merged_state->Final(eval));
    result_.push_back(std::move(v));
  }
  emitted_ = false;
  return Status::OK();
}

Result<bool> ParallelAggregateNode::Next(ExecState&, Row* out) {
  if (emitted_) return false;
  emitted_ = true;
  *out = std::move(result_);
  return true;
}

// -- ParallelIntervalJoinNode ------------------------------------------------

Status ParallelIntervalJoinNode::Open(ExecState& state) {
  results_.clear();
  next_ = 0;
  // One index view shared by every worker: the view is an immutable
  // snapshot, so concurrent probes need no locking.
  TIP_ASSIGN_OR_RETURN(
      IntervalIndexView index,
      probe_.table->GetIntervalIndex(probe_.column, state.eval->tx));
  std::vector<Slot<Row>> per_morsel;
  // Per worker, reused across rows: the candidate ids, and the combined
  // row being built, which leaves only when it joins.
  struct alignas(64) JoinBuffers {
    std::vector<RowId> candidates;
    Row combined;
  };
  std::vector<JoinBuffers> buffers;
  TIP_RETURN_IF_ERROR(RunMorsels(
      state,
      [&](size_t workers, size_t morsels) {
        per_morsel.assign(morsels, {});
        buffers.assign(workers, {});
      },
      [&](MorselWorker& w, RowId, const TupleCtx& left) -> Result<size_t> {
        JoinBuffers& mine = buffers[w.index];
        TIP_RETURN_IF_ERROR(
            probe_.FindCandidates(index, left, w.eval, &mine.candidates));
        size_t joined_rows = 0;
        for (RowId rid : mine.candidates) {
          TIP_ASSIGN_OR_RETURN(bool joined,
                               probe_.Join(*left.row, rid, left.outer, w.eval,
                                           &mine.combined));
          if (!joined) continue;
          ++joined_rows;
          w.morsel_bytes += exec_util::ApproxRowBytes(mine.combined);
          per_morsel[w.morsel].items.push_back(std::move(mine.combined));
        }
        return joined_rows;
      }));
  results_ = InMorselOrder(per_morsel);
  return Status::OK();
}

Result<bool> ParallelIntervalJoinNode::Next(ExecState& state, Row* out) {
  TIP_ASSIGN_OR_RETURN(const Row* row, NextBorrowed(state));
  if (row == nullptr) return false;
  *out = *row;
  return true;
}

Result<const Row*> ParallelIntervalJoinNode::NextBorrowed(ExecState&) {
  if (next_ >= results_.size()) return nullptr;
  return &results_[next_++];
}

void ParallelIntervalJoinNode::Explain(int depth, std::string* out) const {
  MorselNode::Explain(depth, out);
  probe_.Explain(depth + 1, out);
}

// -- ScanForMutation ---------------------------------------------------------

Result<MutationScan> ScanForMutation(
    const Table& table, const BoundExpr* where,
    const std::vector<std::pair<size_t, BoundExprPtr>>* sets, size_t cap,
    ParallelStats* stats, EvalContext& eval) {
  struct Match {
    RowId id;
    uint64_t morsel_row;  // live ordinal within its morsel
    Row row;              // UPDATE: the new contents
  };
  std::vector<Slot<Match>> per_morsel;
  MorselRun run{&table.heap(), where, cap, {}, {}};
  TIP_RETURN_IF_ERROR(run.Run(
      eval, nullptr,
      [&](size_t, size_t morsels) { per_morsel.assign(morsels, {}); },
      [&](MorselWorker& w, RowId id, const TupleCtx& tuple) -> Result<size_t> {
        Match match{id, w.morsel_row, {}};
        if (sets != nullptr) {
          match.row = *tuple.row;
          for (const auto& [idx, expr] : *sets) {
            TIP_RETURN_IF_ERROR(
                exec_util::EvalInto(*expr, tuple, w.eval, &match.row[idx]));
          }
          w.morsel_bytes += exec_util::ApproxRowBytes(match.row);
        }
        per_morsel[w.morsel].items.push_back(std::move(match));
        return size_t{1};
      }));

  size_t found = 0;
  for (const Slot<Match>& slot : per_morsel) found += slot.items.size();
  MutationScan out;
  out.ids.reserve(found);
  out.ordinals.reserve(found);
  if (sets != nullptr) out.rows.reserve(found);
  uint64_t first_ordinal = 0;  // of the current morsel
  for (size_t m = 0; m < per_morsel.size(); ++m) {
    for (Match& match : per_morsel[m].items) {
      out.ids.push_back(match.id);
      out.ordinals.push_back(first_ordinal + match.morsel_row);
      if (sets != nullptr) out.rows.push_back(std::move(match.row));
    }
    first_ordinal += run.morsel_rows[m];
  }
  if (stats != nullptr) {
    stats->RecordRun(std::string(sets != nullptr ? "Update(" : "Delete(") +
                         table.name() + ")",
                     std::move(run.counters));
  }
  return out;
}

}  // namespace tip::engine
