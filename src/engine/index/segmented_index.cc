#include "engine/index/segmented_index.h"

#include <algorithm>
#include <cstdint>
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

/// The row id an entry is recorded under. "integrity.indexentry" is the
/// fault matrix's index-rot site: a fired fault records the entry under
/// a wrong row id, so the index — built tree or delta alike — diverges
/// from the heap exactly as a rotted index page would; CHECK's
/// cross-check must catch both the phantom entry and the now-unindexed
/// live row.
RowId IndexedRowId(RowId id) {
  return fault::MaybeFail("integrity.indexentry").ok() ? id : ~id;
}

}  // namespace

/// An interval index as a view sees it: a tree built from the heap, the
/// rows written since (whose tree entries are stale, so probes skip
/// them) and the current entries of those rows. Immutable once
/// published; a catch-up publishes a patched copy that shares the tree.
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

  /// Appends the rows of the live entries whose keys overlap [qs, qe]
  /// at `now`, which every key (hidden ones too) must admit.
  void FindOverlapping(int64_t qs, int64_t qe, int64_t now,
                       std::vector<RowId>* out) const;

  bool Hidden(RowId id) const {
    const size_t i = DenseRow(id);
    return i < hidden.size() && hidden[i];
  }

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

void IndexSegment::FindOverlapping(int64_t qs, int64_t qe, int64_t now,
                                   std::vector<RowId>* out) const {
  if (tree != nullptr) {
    const size_t first = out->size();
    tree->FindOverlapping(qs, qe, now, out);
    if (hidden_count > 0) {
      out->erase(std::remove_if(out->begin() + static_cast<ptrdiff_t>(first),
                                out->end(),
                                [this](RowId id) { return Hidden(id); }),
                 out->end());
    }
  }
  for (const IntervalEntry& e : delta) {
    if (e.key.OverlapsAt(now, qs, qe)) out->push_back(e.row);
  }
}

void IntervalIndexView::FindOverlapping(const IntervalKey& probe,
                                        std::vector<RowId>* out) const {
  if (segment_ == nullptr) return;
  const size_t before = out->size();
  if (prunes_ && probe.Admits(now_)) {
    const int64_t qs = probe.StartAt(now_);
    const int64_t qe = probe.EndAt(now_);
    if (qs > qe) return;  // the probe covers no time at this NOW
    segment_->FindOverlapping(qs, qe, now_, out);
  } else {
    for (const IntervalEntry& e : Entries()) out->push_back(e.row);
    std::sort(out->begin() + static_cast<ptrdiff_t>(before), out->end());
  }
  stats_->RecordProbe(out->size() - before);
}

std::vector<IntervalEntry> IntervalIndexView::Entries() const {
  std::vector<IntervalEntry> all;
  if (segment_ == nullptr) return all;
  if (segment_->tree != nullptr) {
    for (const IntervalEntry& e : segment_->tree->entries()) {
      if (!segment_->Hidden(e.row)) all.push_back(e);
    }
  }
  all.insert(all.end(), segment_->delta.begin(), segment_->delta.end());
  return all;
}

IntervalIndexView IntervalIndexState::GetView(const HeapTable& heap,
                                              size_t column,
                                              const IntervalKeyFn& key_fn,
                                              const TxContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RowId> changed;
  if (segment_ == nullptr ||
      (heap.version() != version_ && !heap.ChangedSince(version_, &changed))) {
    Rebuild(heap, column, key_fn);
  } else if (!changed.empty()) {
    CatchUp(heap, column, key_fn, std::move(changed));
  }
  const int64_t now = ctx.now.seconds();
  // The range may only be stale: re-derive it before giving up pruning.
  if (now < now_min_ || now > now_max_) AdmitAll();
  return IntervalIndexView(segment_, now, now_min_ <= now && now <= now_max_,
                           stats_);
}

void IntervalIndexState::AdmitAll() {
  // Hidden tree entries count too: probes evaluate them before skipping
  // them.
  now_min_ = INT64_MIN;
  now_max_ = INT64_MAX;
  if (segment_->tree != nullptr) {
    for (const IntervalEntry& e : segment_->tree->entries()) Admit(e.key);
  }
  for (const IntervalEntry& e : segment_->delta) Admit(e.key);
}

void IntervalIndexState::Discard() {
  std::lock_guard<std::mutex> lock(mu_);
  segment_.reset();
}

void IntervalIndexState::Rebuild(const HeapTable& heap, size_t column,
                                 const IntervalKeyFn& key_fn) {
  std::vector<IntervalEntry> entries;
  entries.reserve(heap.row_count());
  bool now_relative = false;
  uint64_t scanned = 0;
  HeapTable::Cursor cursor = heap.Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) {
    ++scanned;
    const Datum& value = (*row)[column];
    if (value.is_null()) continue;
    entries.push_back({key_fn(value), IndexedRowId(id)});
    const IntervalKey& key = entries.back().key;
    now_relative |= key.now_start.has_value() || key.now_end.has_value();
  }
  segment_ = IndexSegment::Build(std::move(entries),
                                 size_t{heap.page_count()} * kRowsPerPage);
  AdmitAll();
  version_ = heap.version();
  churn_limit_ = std::max(kMinDeltaRebuildRows,
                          static_cast<size_t>(scanned) / kDeltaRebuildFraction);
  stats_->RecordBuild(scanned, now_relative);
}

void IntervalIndexState::CatchUp(const HeapTable& heap, size_t column,
                                 const IntervalKeyFn& key_fn,
                                 std::vector<RowId> changed) {
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  if (segment_->churn() + changed.size() > churn_limit_) {
    Rebuild(heap, column, key_fn);
    return;
  }
  // Re-key the changed rows. A deleted row or a NULL value only hides
  // its old entry.
  std::vector<IntervalEntry> entries;
  for (RowId id : changed) {
    const Row* row = heap.Get(id);
    if (row == nullptr || (*row)[column].is_null()) continue;
    entries.push_back({key_fn((*row)[column]), IndexedRowId(id)});
    Admit(entries.back().key);
  }
  segment_ = segment_->Patched(changed, entries);
  version_ = heap.version();
  stats_->RecordCatchUp(changed.size());
}

}  // namespace tip::engine
