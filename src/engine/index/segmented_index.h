#ifndef TIP_ENGINE_INDEX_SEGMENTED_INDEX_H_
#define TIP_ENGINE_INDEX_SEGMENTED_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/tx_context.h"
#include "engine/index/interval_index.h"
#include "engine/metrics.h"
#include "engine/storage/heap_table.h"
#include "engine/types/datum.h"

namespace tip::engine {

/// Reads the NOW-free IntervalKey of an indexable value. This is the
/// "access method support function" an index DataBlade registers for
/// its types. NULL datums are never passed in.
using IntervalKeyFn = std::function<IntervalKey(const Datum&)>;

/// A point-in-time copy of one index's counters.
struct IndexStatsSnapshot {
  uint64_t absolute_builds = 0;  // full builds, one heap scan each
  uint64_t overlay_builds = 0;   // full builds that keyed NOW-relative rows
  uint64_t probes = 0;           // FindOverlapping calls
  uint64_t rows_scanned = 0;     // heap rows keyed by builds and catch-ups
  uint64_t rows_returned = 0;    // candidate row ids produced by probes
};

/// The index counter list: tip_index_stats() and EXPLAIN's per-node
/// IndexStats(...) row are both generated from it.
Metrics IndexMetrics(const IndexStatsSnapshot& stats);

/// Monotonic per-index counters. Probes run outside the rebuild mutex,
/// so the counters are atomics; rebuild counters reuse them for
/// uniformity.
class IndexStats {
 public:
  void RecordBuild(uint64_t rows_scanned, bool keyed_now_relative_rows) {
    absolute_builds_.fetch_add(1, std::memory_order_relaxed);
    if (keyed_now_relative_rows) {
      overlay_builds_.fetch_add(1, std::memory_order_relaxed);
    }
    rows_scanned_.fetch_add(rows_scanned, std::memory_order_relaxed);
  }
  /// A catch-up re-keyed `rows_scanned` changed rows.
  void RecordCatchUp(uint64_t rows_scanned) {
    rows_scanned_.fetch_add(rows_scanned, std::memory_order_relaxed);
  }
  void RecordProbe(uint64_t rows_returned) {
    probes_.fetch_add(1, std::memory_order_relaxed);
    rows_returned_.fetch_add(rows_returned, std::memory_order_relaxed);
  }

  IndexStatsSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> absolute_builds_{0};
  std::atomic<uint64_t> overlay_builds_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<uint64_t> rows_returned_{0};
};

/// A full rebuild replaces catch-up once the delta — hidden rows plus
/// delta entries — exceeds the larger of kMinDeltaRebuildRows and
/// 1/kDeltaRebuildFraction of the rows the last full build scanned. Past
/// that, the per-probe cost of skipping hidden rows and scanning the
/// delta outweighs a rebuild.
inline constexpr size_t kDeltaRebuildFraction = 8;
inline constexpr size_t kMinDeltaRebuildRows = 64;

/// An immutable snapshot of an interval index: a tree built from the
/// heap, plus the delta a catch-up patched in (see segmented_index.cc).
struct IndexSegment;

/// An immutable probe view over an interval index, consistent as of one
/// heap version and answering at one transaction time NOW. Copyable and
/// cheap: it shares ownership of its segment, so a view keeps answering
/// from its snapshot even after later GetView calls publish caught-up or
/// rebuilt segments.
class IntervalIndexView {
 public:
  IntervalIndexView() = default;
  IntervalIndexView(std::shared_ptr<const IndexSegment> segment, int64_t now,
                    bool prunes, std::shared_ptr<IndexStats> stats)
      : segment_(std::move(segment)),
        now_(now),
        prunes_(prunes),
        stats_(std::move(stats)) {}

  /// Appends to `out` (order unspecified) the rows whose keys, evaluated
  /// at the view's NOW, overlap the probe key evaluated there: a
  /// superset of the rows whose values overlap the probe value. Appends
  /// none when the probe covers no time. When the probe or some indexed
  /// value cannot be grounded at this NOW, no row can be ruled out: the
  /// view appends every indexed row in heap order, so the caller's exact
  /// predicate reports the grounding error a scan would.
  void FindOverlapping(const IntervalKey& probe,
                       std::vector<RowId>* out) const;

  /// Every live entry, whatever the NOW. Not counted as a probe.
  std::vector<IntervalEntry> Entries() const;

 private:
  std::shared_ptr<const IndexSegment> segment_;
  int64_t now_ = 0;
  bool prunes_ = true;  // false: some live key does not admit now_
  std::shared_ptr<IndexStats> stats_;
};

/// The lazily built, mutex-guarded state of one interval index.
///
/// Each row is keyed once, without a NOW: a NOW-relative row's key is
/// evaluated at each view's own NOW, so the paper's NOW-override
/// what-if browsing costs nothing per NOW, and sessions at different
/// NOWs share one index.
///
/// Writes do not force a rebuild either. A view requested after writes
/// asks the heap's change log which rows changed, hides their old
/// entries and re-keys the live ones into the delta. A full rebuild
/// happens only when the heap cannot say (log overflow, ROLLBACK), when
/// the delta outgrows kDeltaRebuildFraction, on first use and after
/// Discard.
///
/// All decisions and swaps happen under an internal mutex, making
/// concurrent GetView calls from multiple query threads safe.
class IntervalIndexState {
 public:
  /// Returns a probe view consistent with `heap`'s current version and
  /// answering at `ctx`'s transaction time, catching up or rebuilding
  /// first. `column` selects the indexed column; `key_fn` extracts keys.
  IntervalIndexView GetView(const HeapTable& heap, size_t column,
                            const IntervalKeyFn& key_fn,
                            const TxContext& ctx);

  /// Drops the segment, so the next GetView rebuilds from the heap.
  /// CHECK calls this on an index it found inconsistent.
  void Discard();

  IndexStatsSnapshot stats() const { return stats_->Snapshot(); }

 private:
  void Rebuild(const HeapTable& heap, size_t column,
               const IntervalKeyFn& key_fn);
  void CatchUp(const HeapTable& heap, size_t column,
               const IntervalKeyFn& key_fn, std::vector<RowId> changed);
  /// Narrows [now_min_, now_max_] to the NOWs `key` admits.
  void Admit(const IntervalKey& key) {
    now_min_ = std::max(now_min_, key.now_min);
    now_max_ = std::min(now_max_, key.now_max);
  }
  /// Sets [now_min_, now_max_] to the NOWs every key of the segment
  /// admits.
  void AdmitAll();

  std::mutex mu_;

  // Null until the first build and after Discard; reflects heap version
  // version_.
  std::shared_ptr<const IndexSegment> segment_;
  uint64_t version_ = 0;
  // NOWs every key of the segment admits. Catch-ups only narrow the
  // range, so it may be narrower than the keys need.
  int64_t now_min_ = INT64_MIN;
  int64_t now_max_ = INT64_MAX;
  // The churn at which a catch-up becomes a full rebuild.
  size_t churn_limit_ = 0;

  std::shared_ptr<IndexStats> stats_ = std::make_shared<IndexStats>();
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_INDEX_SEGMENTED_INDEX_H_
