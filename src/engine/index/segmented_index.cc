#include "engine/index/segmented_index.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>

#include "common/fault_injection.h"

namespace tip::engine {

Metrics IndexMetrics(const IndexStatsSnapshot& stats) {
  return {{"absolute_builds", stats.absolute_builds},
          {"overlay_builds", stats.overlay_builds},
          {"probes", stats.probes},
          {"rows_scanned", stats.rows_scanned},
          {"rows_returned", stats.rows_returned}};
}

IndexStatsSnapshot IndexStats::Snapshot() const {
  IndexStatsSnapshot out;
  out.absolute_builds = absolute_builds_.load(std::memory_order_relaxed);
  out.overlay_builds = overlay_builds_.load(std::memory_order_relaxed);
  out.probes = probes_.load(std::memory_order_relaxed);
  out.rows_scanned = rows_scanned_.load(std::memory_order_relaxed);
  out.rows_returned = rows_returned_.load(std::memory_order_relaxed);
  return out;
}

namespace {

/// A row's position in page order: page * kRowsPerPage + slot.
size_t DenseRow(RowId id) {
  return static_cast<size_t>(RowIdPage(id)) * kRowsPerPage + RowIdSlot(id);
}

/// The row id an absolute-segment entry is recorded under.
/// "integrity.indexentry" is the fault matrix's index-rot site: a fired
/// fault records the entry under a wrong row id, so the segment — built
/// tree or delta alike — diverges from the heap exactly as a rotted
/// index page would; CHECK's cross-check must catch both the phantom
/// entry and the now-unindexed live row.
RowId IndexedRowId(RowId id) {
  return fault::MaybeFail("integrity.indexentry").ok() ? id : ~id;
}

}  // namespace

/// One segment of an interval index as a view sees it: a tree built
/// from the heap, the rows written since (whose tree entries are stale,
/// so probes skip them) and the current entries of those rows.
/// Immutable once published; a catch-up publishes a patched copy that
/// shares the tree.
struct IndexSegment {
  std::shared_ptr<const IntervalIndex> tree;  // null: no entries
  /// Rows with a dense index below this existed when the tree was
  /// built; later rows are never in it.
  size_t row_span = 0;
  /// By dense row index; empty until the first row is hidden.
  std::vector<bool> hidden;
  size_t hidden_count = 0;
  std::vector<IntervalEntry> delta;

  /// A segment whose tree holds `entries`, over rows below `row_span`.
  static std::shared_ptr<const IndexSegment> Build(
      std::vector<IntervalEntry> entries, size_t row_span);

  /// A copy with the rows in `changed` (sorted, unique) hidden and
  /// their delta entries replaced by `entries`.
  std::shared_ptr<const IndexSegment> Patched(
      const std::vector<RowId>& changed,
      const std::vector<IntervalEntry>& entries) const;

  /// Appends the rows of every live entry overlapping [qs, qe].
  void FindOverlapping(int64_t qs, int64_t qe, std::vector<RowId>* out) const;

  /// The extra work a probe does for the delta.
  size_t churn() const { return hidden_count + delta.size(); }
};

std::shared_ptr<const IndexSegment> IndexSegment::Build(
    std::vector<IntervalEntry> entries, size_t row_span) {
  auto segment = std::make_shared<IndexSegment>();
  segment->row_span = row_span;
  if (!entries.empty()) {
    segment->tree = std::make_shared<const IntervalIndex>(
        IntervalIndex::Build(std::move(entries)));
  }
  return segment;
}

std::shared_ptr<const IndexSegment> IndexSegment::Patched(
    const std::vector<RowId>& changed,
    const std::vector<IntervalEntry>& entries) const {
  auto next = std::make_shared<IndexSegment>(*this);
  for (RowId id : changed) {
    const size_t i = DenseRow(id);
    if (i >= row_span) continue;  // appended after the tree was built
    if (next->hidden.empty()) next->hidden.resize(row_span);
    if (!next->hidden[i]) {
      next->hidden[i] = true;
      ++next->hidden_count;
    }
  }
  std::erase_if(next->delta, [&changed](const IntervalEntry& e) {
    return std::binary_search(changed.begin(), changed.end(), e.row);
  });
  next->delta.insert(next->delta.end(), entries.begin(), entries.end());
  return next;
}

void IndexSegment::FindOverlapping(int64_t qs, int64_t qe,
                                   std::vector<RowId>* out) const {
  if (tree != nullptr) {
    const size_t first = out->size();
    tree->FindOverlapping(qs, qe, out);
    if (hidden_count > 0) {
      out->erase(std::remove_if(out->begin() + static_cast<ptrdiff_t>(first),
                                out->end(),
                                [this](RowId id) {
                                  const size_t i = DenseRow(id);
                                  return i < hidden.size() && hidden[i];
                                }),
                 out->end());
    }
  }
  for (const IntervalEntry& e : delta) {
    if (e.start <= qe && qs <= e.end) out->push_back(e.row);
  }
}

void IntervalIndexView::FindOverlapping(int64_t qs, int64_t qe,
                                        std::vector<RowId>* out) const {
  const size_t before = out->size();
  if (absolute_ != nullptr) absolute_->FindOverlapping(qs, qe, out);
  if (overlay_ != nullptr) overlay_->FindOverlapping(qs, qe, out);
  if (stats_ != nullptr) stats_->RecordProbe(out->size() - before);
}

size_t IntervalIndexView::entry_count() const {
  std::vector<RowId> all;
  for (const auto& segment : {absolute_, overlay_}) {
    if (segment != nullptr) {
      segment->FindOverlapping(INT64_MIN, INT64_MAX, &all);
    }
  }
  return all.size();
}

Result<IntervalIndexView> IntervalIndexState::GetView(
    const HeapTable& heap, size_t column, const IntervalKeyFn& key_fn,
    const TxContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RowId> changed;
  if (absolute_ == nullptr ||
      (heap.version() != version_ && !heap.ChangedSince(version_, &changed))) {
    TIP_RETURN_IF_ERROR(Rebuild(heap, column, key_fn, ctx));
  } else if (!changed.empty() ||
             (ctx.now.seconds() != now_ && !now_rows_.empty())) {
    // An all-absolute index skips NOW changes entirely: its answers are
    // NOW-invariant.
    TIP_RETURN_IF_ERROR(
        CatchUp(heap, column, key_fn, ctx, std::move(changed)));
  }
  return IntervalIndexView(absolute_, overlay_, stats_);
}

void IntervalIndexState::Discard() {
  std::lock_guard<std::mutex> lock(mu_);
  absolute_.reset();
  overlay_.reset();
  now_rows_.clear();
}

Status IntervalIndexState::Rebuild(const HeapTable& heap, size_t column,
                                   const IntervalKeyFn& key_fn,
                                   const TxContext& ctx) {
  // One scan partitions the rows into the absolute segment and the
  // NOW-dependent overlay. Everything is staged in locals and swapped
  // in only on success.
  std::vector<IntervalEntry> absolute_entries;
  std::vector<IntervalEntry> overlay_entries;
  std::vector<RowId> now_rows;  // in scan order, so sorted
  absolute_entries.reserve(heap.row_count());
  uint64_t scanned = 0;
  HeapTable::Cursor cursor = heap.Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) {
    ++scanned;
    const Datum& value = (*row)[column];
    if (value.is_null()) continue;
    TIP_ASSIGN_OR_RETURN(IntervalKey key, key_fn(value, ctx));
    if (key.now_dependent) {
      now_rows.push_back(id);
      if (!key.empty) {
        overlay_entries.push_back(IntervalEntry{key.start, key.end, id});
      }
    } else if (!key.empty) {
      absolute_entries.push_back(
          IntervalEntry{key.start, key.end, IndexedRowId(id)});
    }
  }
  const size_t row_span = size_t{heap.page_count()} * kRowsPerPage;
  absolute_ = IndexSegment::Build(std::move(absolute_entries), row_span);
  overlay_ = IndexSegment::Build(std::move(overlay_entries), row_span);
  now_rows_ = std::move(now_rows);
  version_ = heap.version();
  now_ = ctx.now.seconds();
  churn_limit_ = std::max(kMinDeltaRebuildRows,
                          static_cast<size_t>(scanned) / kDeltaRebuildFraction);
  stats_->RecordAbsoluteBuild(scanned);
  if (!now_rows_.empty()) stats_->RecordOverlayBuild(0);
  return Status::OK();
}

Status IntervalIndexState::CatchUp(const HeapTable& heap, size_t column,
                                   const IntervalKeyFn& key_fn,
                                   const TxContext& ctx,
                                   std::vector<RowId> changed) {
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  if (absolute_->churn() + overlay_->churn() + changed.size() >
      churn_limit_) {
    return Rebuild(heap, column, key_fn, ctx);
  }
  const int64_t now = ctx.now.seconds();

  // Re-key the changed rows. A deleted row or a NULL value only hides
  // its old entries.
  std::vector<IntervalEntry> absolute_entries;
  std::vector<IntervalEntry> now_entries;
  std::vector<RowId> now_changed;
  for (RowId id : changed) {
    const Row* row = heap.Get(id);
    if (row == nullptr || (*row)[column].is_null()) continue;
    TIP_ASSIGN_OR_RETURN(IntervalKey key, key_fn((*row)[column], ctx));
    if (key.now_dependent) {
      now_changed.push_back(id);
      if (!key.empty) now_entries.push_back({key.start, key.end, id});
    } else if (!key.empty) {
      absolute_entries.push_back({key.start, key.end, IndexedRowId(id)});
    }
  }

  // The NOW-dependent rows after this batch: the unchanged ones, which
  // were live and NOW-dependent at version_, plus the re-keyed ones.
  std::vector<RowId> unchanged_now_rows;
  unchanged_now_rows.reserve(now_rows_.size());
  std::set_difference(now_rows_.begin(), now_rows_.end(), changed.begin(),
                      changed.end(), std::back_inserter(unchanged_now_rows));

  // The transaction time moved: re-ground every NOW-dependent row into
  // a fresh overlay. Otherwise the overlay is patched like the absolute
  // segment.
  const bool reground = now != now_;
  std::shared_ptr<const IndexSegment> overlay;
  if (reground) {
    for (RowId id : unchanged_now_rows) {
      const Row* row = heap.Get(id);
      if (row == nullptr) continue;  // unreachable: unchanged since version_
      TIP_ASSIGN_OR_RETURN(IntervalKey key, key_fn((*row)[column], ctx));
      if (!key.empty) now_entries.push_back({key.start, key.end, id});
    }
    overlay = IndexSegment::Build(std::move(now_entries),
                                  size_t{heap.page_count()} * kRowsPerPage);
  } else {
    overlay = overlay_->Patched(changed, now_entries);
  }

  if (!changed.empty()) {
    absolute_ = absolute_->Patched(changed, absolute_entries);
  }
  overlay_ = std::move(overlay);
  now_rows_.clear();
  std::merge(unchanged_now_rows.begin(), unchanged_now_rows.end(),
             now_changed.begin(), now_changed.end(),
             std::back_inserter(now_rows_));
  version_ = heap.version();
  now_ = now;
  stats_->RecordCatchUp(changed.size());
  if (reground) stats_->RecordOverlayBuild(now_rows_.size());
  return Status::OK();
}

}  // namespace tip::engine
