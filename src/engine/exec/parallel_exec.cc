#include "engine/exec/parallel_exec.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/fault_injection.h"
#include "engine/exec/row_utils.h"

namespace tip::engine {

namespace {

// Effective degree of parallelism: never more workers than morsels,
// never fewer than one.
size_t EffectiveWorkers(size_t requested, size_t num_morsels) {
  return std::max<size_t>(1, std::min(requested, num_morsels));
}

size_t NumMorsels(const HeapTable& heap) {
  return (heap.page_count() + kPagesPerMorsel - 1) / kPagesPerMorsel;
}

// Degrades gracefully under pool saturation: never ask for more workers
// than the shared pool can actually serve right now (+1 because the
// caller participates as worker 0). A statement forced below its
// requested fan-out records a parallel_fallbacks event.
size_t PlanWorkers(size_t requested, size_t num_morsels, ExecGuard* guard) {
  size_t n = EffectiveWorkers(requested, num_morsels);
  if (n <= 1) return n;
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

void AppendParallelLines(int depth, size_t workers,
                         const ParallelStats* stats, std::string* out) {
  AppendIndent(depth, out);
  out->append("Parallel(workers=" + std::to_string(workers) +
              " pages_per_morsel=" + std::to_string(kPagesPerMorsel) +
              ")\n");
  if (stats == nullptr) return;
  std::optional<ParallelStats::Snapshot> snap = stats->Latest();
  if (snap.has_value()) {
    AppendIndent(depth, out);
    out->append("ParallelStats(" + snap->ToString() + ")\n");
  }
}

}  // namespace

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

// -- ParallelScanNode --------------------------------------------------------

Status ParallelScanNode::Open(ExecState& state) {
  matches_.clear();
  next_ = 0;
  const HeapTable& heap = table_->heap();
  const size_t num_morsels = NumMorsels(heap);
  ExecGuard* guard = state.eval->guard;
  const TupleCtx* outer = state.outer;
  const TxContext tx = state.eval->tx;
  const std::vector<Datum>* params = state.eval->params;

  std::vector<std::vector<RowId>> per_morsel(num_morsels);
  std::vector<WorkerCounters> counters;

  auto attempt = [&](size_t n) -> Status {
    for (std::vector<RowId>& ids : per_morsel) ids.clear();
    counters.assign(n, WorkerCounters{});
    MorselSource source(&heap, kPagesPerMorsel);
    std::atomic<bool> failed{false};

    auto body = [&](size_t w) -> Status {
      MaybeThrowWorkerFault();
      EvalContext eval(tx, guard);  // worker-private: not shared
      eval.params = params;
      WorkerCounters& c = counters[w];
      Morsel m;
      while (!failed.load(std::memory_order_relaxed) && source.Next(&m)) {
        TIP_RETURN_IF_ERROR(eval.CheckGuardNow());
        ++c.morsels;
        std::vector<RowId>& out_ids =
            per_morsel[m.page_begin / kPagesPerMorsel];
        HeapTable::Cursor cursor = heap.ScanPages(m.page_begin, m.page_end);
        RowId id;
        const Row* row;
        while (cursor.Next(&id, &row)) {
          TIP_RETURN_IF_ERROR(eval.CheckGuard());
          ++c.rows_in;
          if (predicate_ != nullptr) {
            TupleCtx tuple{row, outer};
            TIP_ASSIGN_OR_RETURN(
                bool pass,
                exec_util::PredicatePasses(*predicate_, tuple, eval));
            if (!pass) continue;
          }
          ++c.rows_out;
          out_ids.push_back(id);
        }
        TIP_RETURN_IF_ERROR(
            eval.ReserveMemory(out_ids.capacity() * sizeof(RowId)));
      }
      return Status::OK();
    };
    return ThreadPool::Shared().RunOnWorkers(n, [&](size_t w) -> Status {
      Status s = body(w);
      if (!s.ok()) failed.store(true, std::memory_order_relaxed);
      return s;
    });
  };

  const size_t n = PlanWorkers(workers_, num_morsels, guard);
  Status run = attempt(n);
  // One serial retry even when n == 1: a single-morsel plan still
  // runs its body through the pool's exception capture, and a
  // transient worker crash should not fail the statement at any
  // planned width.
  if (IsWorkerInfraFailure(run)) {
    if (guard != nullptr) guard->RecordParallelFallback();
    run = attempt(1);
  }
  TIP_RETURN_IF_ERROR(run);

  size_t total = 0;
  for (const std::vector<RowId>& ids : per_morsel) total += ids.size();
  matches_.reserve(total);
  for (const std::vector<RowId>& ids : per_morsel) {
    matches_.insert(matches_.end(), ids.begin(), ids.end());
  }
  if (stats_ != nullptr) stats_->RecordRun(DebugName(), std::move(counters));
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

void ParallelScanNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  AppendParallelLines(depth + 1, workers_, stats_, out);
  if (predicate_ != nullptr) {
    AppendIndent(depth + 1, out);
    out->append("Filter(pushed)\n");
  }
}

// -- ParallelAggregateNode ---------------------------------------------------

Result<ParallelAggregateNode::Group*> ParallelAggregateNode::FindOrCreateGroup(
    LocalAgg& local, uint64_t hash, DatumRefs keys, EvalContext& eval) {
  auto [begin, end] = local.index.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    TIP_ASSIGN_OR_RETURN(bool equal,
                         exec_util::DatumsEqual(local.groups[it->second].keys,
                                                keys, *types_, eval.tx));
    if (equal) return &local.groups[it->second];
  }
  // A new group copies its keys out of the borrowed input, and buffers
  // them plus one aggregate state apiece; charge the statement budget as
  // the group table grows.
  Group group;
  group.hash = hash;
  group.keys.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) group.keys.push_back(keys[i]);
  TIP_RETURN_IF_ERROR(eval.ReserveMemory(
      exec_util::ApproxRowBytes(group.keys) + aggregates_.size() * 64));
  group.states.reserve(aggregates_.size());
  for (const AggregateSpec& spec : aggregates_) {
    group.states.push_back(spec.agg.def->make_state());
  }
  local.index.emplace(hash, local.groups.size());
  local.groups.push_back(std::move(group));
  return &local.groups.back();
}

Status ParallelAggregateNode::ScanWorker(LocalAgg& local, MorselSource& source,
                                         std::atomic<bool>& failed,
                                         const TupleCtx* outer,
                                         EvalContext& eval) {
  const HeapTable& heap = table_->heap();
  // The group keys of the current row, borrowed (computed ones in
  // key_slots); FindOrCreateGroup copies them only for a new group.
  std::vector<Datum> key_slots(group_exprs_.size());
  std::vector<const Datum*> key_values(group_exprs_.size());
  const DatumRefs keys(key_values.data(), key_values.size());
  Morsel m;
  while (!failed.load(std::memory_order_relaxed) && source.Next(&m)) {
    TIP_RETURN_IF_ERROR(eval.CheckGuardNow());
    ++local.counters.morsels;
    HeapTable::Cursor cursor = heap.ScanPages(m.page_begin, m.page_end);
    RowId id;
    const Row* row;
    while (cursor.Next(&id, &row)) {
      TIP_RETURN_IF_ERROR(eval.CheckGuard());
      ++local.counters.rows_in;
      TupleCtx tuple{row, outer};
      if (predicate_ != nullptr) {
        TIP_ASSIGN_OR_RETURN(
            bool pass, exec_util::PredicatePasses(*predicate_, tuple, eval));
        if (!pass) continue;
      }
      ++local.counters.rows_out;

      for (size_t i = 0; i < group_exprs_.size(); ++i) {
        TIP_ASSIGN_OR_RETURN(key_values[i],
                             group_exprs_[i]->Eval(tuple, eval,
                                                   &key_slots[i]));
      }
      TIP_ASSIGN_OR_RETURN(uint64_t h,
                           exec_util::HashDatums(keys, *types_, eval.tx));
      TIP_ASSIGN_OR_RETURN(Group* group,
                           FindOrCreateGroup(local, h, keys, eval));
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        TIP_RETURN_IF_ERROR(
            StepAggregate(aggregates_[i], tuple, eval, *group->states[i]));
      }
    }
  }
  return Status::OK();
}

Status ParallelAggregateNode::Open(ExecState& state) {
  results_.clear();
  next_ = 0;
  const HeapTable& heap = table_->heap();
  const size_t num_morsels = NumMorsels(heap);
  ExecGuard* guard = state.eval->guard;
  const TupleCtx* outer = state.outer;
  const TxContext tx = state.eval->tx;
  const std::vector<Datum>* params = state.eval->params;

  std::vector<LocalAgg> locals;

  auto attempt = [&](size_t n) -> Status {
    locals.clear();
    locals.resize(n);
    MorselSource source(&heap, kPagesPerMorsel);
    std::atomic<bool> failed{false};
    return ThreadPool::Shared().RunOnWorkers(n, [&](size_t w) -> Status {
      MaybeThrowWorkerFault();
      EvalContext eval(tx, guard);
      eval.params = params;
      LocalAgg& local = locals[w];
      local.status = ScanWorker(local, source, failed, outer, eval);
      if (!local.status.ok()) failed.store(true, std::memory_order_relaxed);
      return local.status;
    });
  };

  const size_t n = PlanWorkers(workers_, num_morsels, guard);
  Status run = attempt(n);
  if (IsWorkerInfraFailure(run)) {
    if (guard != nullptr) guard->RecordParallelFallback();
    run = attempt(1);
  }
  TIP_RETURN_IF_ERROR(run);

  // Fold the thread-local partials into worker 0's table. Groups whole
  // to one worker move over; shared groups merge state-by-state.
  LocalAgg& base = locals[0];
  EvalContext& eval = *state.eval;
  for (size_t w = 1; w < locals.size(); ++w) {
    for (Group& g : locals[w].groups) {
      Group* dst = nullptr;
      auto [begin, end] = base.index.equal_range(g.hash);
      for (auto it = begin; it != end; ++it) {
        TIP_ASSIGN_OR_RETURN(
            bool equal,
            exec_util::DatumsEqual(base.groups[it->second].keys, g.keys,
                                   *types_, eval.tx));
        if (equal) {
          dst = &base.groups[it->second];
          break;
        }
      }
      if (dst == nullptr) {
        base.index.emplace(g.hash, base.groups.size());
        base.groups.push_back(std::move(g));
        continue;
      }
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        TIP_RETURN_IF_ERROR(
            dst->states[i]->Merge(std::move(*g.states[i]), eval));
      }
    }
  }

  // Global aggregates produce one row even with no input.
  if (group_exprs_.empty() && base.groups.empty()) {
    Group group;
    for (const AggregateSpec& spec : aggregates_) {
      group.states.push_back(spec.agg.def->make_state());
    }
    base.groups.push_back(std::move(group));
  }

  results_.reserve(base.groups.size());
  for (Group& group : base.groups) {
    Row out;
    out.reserve(group.keys.size() + aggregates_.size());
    for (Datum& key : group.keys) out.push_back(std::move(key));
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      TIP_ASSIGN_OR_RETURN(Datum v, group.states[i]->Final(eval));
      out.push_back(std::move(v));
    }
    results_.push_back(std::move(out));
  }

  if (stats_ != nullptr) {
    std::vector<WorkerCounters> counters;
    counters.reserve(locals.size());
    for (const LocalAgg& local : locals) counters.push_back(local.counters);
    stats_->RecordRun(DebugName(), std::move(counters));
  }
  return Status::OK();
}

Result<bool> ParallelAggregateNode::Next(ExecState&, Row* out) {
  if (next_ >= results_.size()) return false;
  *out = results_[next_++];
  return true;
}

void ParallelAggregateNode::Explain(int depth, std::string* out) const {
  ExecNode::Explain(depth, out);
  AppendParallelLines(depth + 1, workers_, stats_, out);
  AppendIndent(depth + 1, out);
  out->append("MorselScan(" + table_->name() +
              (predicate_ != nullptr ? ", filtered" : "") + ")\n");
}

// -- ParallelIntervalJoinNode ------------------------------------------------

Status ParallelIntervalJoinNode::Open(ExecState& state) {
  results_.clear();
  next_ = 0;
  // One index view shared by every worker: the view is an immutable
  // snapshot, so concurrent probes need no locking.
  TIP_ASSIGN_OR_RETURN(
      IntervalIndexView index,
      right_table_->GetIntervalIndex(right_column_, state.eval->tx));

  const HeapTable& heap = left_table_->heap();
  const size_t num_morsels = NumMorsels(heap);
  ExecGuard* guard = state.eval->guard;
  const TupleCtx* outer = state.outer;
  const TxContext tx = state.eval->tx;
  const std::vector<Datum>* params = state.eval->params;

  std::vector<std::vector<Row>> per_morsel(num_morsels);
  std::vector<WorkerCounters> counters;

  auto attempt = [&](size_t n) -> Status {
    for (std::vector<Row>& rows : per_morsel) rows.clear();
    counters.assign(n, WorkerCounters{});
    MorselSource source(&heap, kPagesPerMorsel);
    std::atomic<bool> failed{false};

    auto body = [&](size_t w) -> Status {
      MaybeThrowWorkerFault();
      EvalContext eval(tx, guard);
      eval.params = params;
      WorkerCounters& c = counters[w];
      std::vector<RowId> matches;
      Morsel m;
      while (!failed.load(std::memory_order_relaxed) && source.Next(&m)) {
        TIP_RETURN_IF_ERROR(eval.CheckGuardNow());
        ++c.morsels;
        std::vector<Row>& out_rows =
            per_morsel[m.page_begin / kPagesPerMorsel];
        HeapTable::Cursor cursor = heap.ScanPages(m.page_begin, m.page_end);
        RowId id;
        const Row* row;
        size_t morsel_bytes = 0;
        while (cursor.Next(&id, &row)) {
          TIP_RETURN_IF_ERROR(eval.CheckGuard());
          ++c.rows_in;
          TupleCtx left_tuple{row, outer};
          if (left_predicate_ != nullptr) {
            TIP_ASSIGN_OR_RETURN(
                bool pass, exec_util::PredicatePasses(*left_predicate_,
                                                      left_tuple, eval));
            if (!pass) continue;
          }
          matches.clear();
          Datum slot;
          TIP_ASSIGN_OR_RETURN(const Datum* probe,
                               left_probe_->Eval(left_tuple, eval, &slot));
          if (!probe->is_null()) {
            TIP_ASSIGN_OR_RETURN(IntervalKey key,
                                 probe_key_fn_(*probe, eval.tx));
            if (!key.empty) {
              index.FindOverlapping(key.start, key.end, &matches);
            }
          }
          for (RowId rid : matches) {
            const Row* right_row = right_table_->heap().Get(rid);
            if (right_row == nullptr) continue;
            Row combined;
            combined.reserve(row->size() + right_row->size());
            combined.insert(combined.end(), row->begin(), row->end());
            combined.insert(combined.end(), right_row->begin(),
                            right_row->end());
            if (residual_ != nullptr) {
              TupleCtx tuple{&combined, outer};
              TIP_ASSIGN_OR_RETURN(
                  bool pass,
                  exec_util::PredicatePasses(*residual_, tuple, eval));
              if (!pass) continue;
            }
            ++c.rows_out;
            morsel_bytes += exec_util::ApproxRowBytes(combined);
            out_rows.push_back(std::move(combined));
          }
        }
        TIP_RETURN_IF_ERROR(eval.ReserveMemory(morsel_bytes));
      }
      return Status::OK();
    };
    return ThreadPool::Shared().RunOnWorkers(n, [&](size_t w) -> Status {
      Status s = body(w);
      if (!s.ok()) failed.store(true, std::memory_order_relaxed);
      return s;
    });
  };

  const size_t n = PlanWorkers(workers_, num_morsels, guard);
  Status run = attempt(n);
  if (IsWorkerInfraFailure(run)) {
    if (guard != nullptr) guard->RecordParallelFallback();
    run = attempt(1);
  }
  TIP_RETURN_IF_ERROR(run);

  size_t total = 0;
  for (const std::vector<Row>& rows : per_morsel) total += rows.size();
  results_.reserve(total);
  for (std::vector<Row>& rows : per_morsel) {
    for (Row& row : rows) results_.push_back(std::move(row));
  }
  if (stats_ != nullptr) stats_->RecordRun(DebugName(), std::move(counters));
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
  ExecNode::Explain(depth, out);
  AppendParallelLines(depth + 1, workers_, stats_, out);
  AppendIndent(depth + 1, out);
  out->append("MorselScan(" + left_table_->name() +
              (left_predicate_ != nullptr ? ", filtered" : "") + ")\n");
  AppendIndent(depth + 1, out);
  out->append("IndexProbe(" + right_table_->name() + ")\n");
  std::optional<IndexStatsSnapshot> stats =
      right_table_->IntervalIndexStats(right_column_);
  if (stats.has_value()) {
    AppendIndent(depth + 1, out);
    out->append("IndexStats(" + FormatMetrics(IndexMetrics(*stats)) + ")\n");
  }
}

}  // namespace tip::engine
