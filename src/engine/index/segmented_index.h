#ifndef TIP_ENGINE_INDEX_SEGMENTED_INDEX_H_
#define TIP_ENGINE_INDEX_SEGMENTED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/tx_context.h"
#include "engine/index/interval_index.h"
#include "engine/metrics.h"
#include "engine/storage/heap_table.h"
#include "engine/types/datum.h"

namespace tip::engine {

/// The index key an access-method support function extracts from one
/// value: the closed bounding interval of the time the value covers, or
/// "empty" when it covers none under the given context (an empty
/// Element, or a NOW-relative period that grounds inverted). The
/// `now_dependent` bit reports whether the key is a function of the
/// transaction time — a NOW-relative value's bounding interval moves as
/// NOW does, an absolute value's never does. The segmented index uses it
/// to decide which segment a row belongs to.
struct IntervalKey {
  int64_t start = 0;
  int64_t end = 0;  // inclusive; meaningful only when !empty
  bool empty = false;
  bool now_dependent = false;

  static IntervalKey Bounds(int64_t start, int64_t end, bool now_dependent) {
    IntervalKey key;
    key.start = start;
    key.end = end;
    key.now_dependent = now_dependent;
    return key;
  }
  /// A value covering no time. It still carries `now_dependent`: an
  /// empty NOW-relative value may become non-empty under another NOW.
  static IntervalKey Empty(bool now_dependent) {
    IntervalKey key;
    key.empty = true;
    key.now_dependent = now_dependent;
    return key;
  }
};

/// Extracts the IntervalKey of an indexable value (grounded under
/// `ctx`). This is the "access method support function" an index
/// DataBlade registers for its types. NULL datums are never passed in.
using IntervalKeyFn =
    std::function<Result<IntervalKey>(const Datum&, const TxContext&)>;

/// A point-in-time copy of one index's counters.
struct IndexStatsSnapshot {
  uint64_t absolute_builds = 0;  // full scans building the absolute segment
  uint64_t overlay_builds = 0;   // NOW-dependent overlay (re)builds
  uint64_t probes = 0;           // FindOverlapping/FindStabbing calls
  uint64_t rows_scanned = 0;     // heap rows examined during builds
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
  void RecordAbsoluteBuild(uint64_t rows_scanned) {
    absolute_builds_.fetch_add(1, std::memory_order_relaxed);
    rows_scanned_.fetch_add(rows_scanned, std::memory_order_relaxed);
  }
  void RecordOverlayBuild(uint64_t rows_scanned) {
    overlay_builds_.fetch_add(1, std::memory_order_relaxed);
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
/// delta entries, summed over both segments — exceeds the larger of
/// kMinDeltaRebuildRows and 1/kDeltaRebuildFraction of the rows the
/// last full build scanned. Past that, the per-probe cost of skipping
/// hidden rows and scanning the delta outweighs a rebuild.
inline constexpr size_t kDeltaRebuildFraction = 8;
inline constexpr size_t kMinDeltaRebuildRows = 64;

/// One immutable segment of an interval index: a tree built from the
/// heap, plus the delta a catch-up patched in (see segmented_index.cc).
struct IndexSegment;

/// An immutable probe view over the two segments of a segmented
/// interval index, consistent as of one (heap version, NOW) pair.
/// Copyable and cheap: it shares ownership of both segments, so a view
/// keeps answering from its snapshot even after later GetView calls
/// publish caught-up or rebuilt segments.
class IntervalIndexView {
 public:
  IntervalIndexView() = default;
  IntervalIndexView(std::shared_ptr<const IndexSegment> absolute,
                    std::shared_ptr<const IndexSegment> overlay,
                    std::shared_ptr<IndexStats> stats)
      : absolute_(std::move(absolute)),
        overlay_(std::move(overlay)),
        stats_(std::move(stats)) {}

  /// Appends the rows of every entry overlapping [qs, qe] from both
  /// segments to `out` (order unspecified). Requires qs <= qe.
  void FindOverlapping(int64_t qs, int64_t qe, std::vector<RowId>* out) const;

  /// Appends the rows of every entry containing chronon `q`.
  void FindStabbing(int64_t q, std::vector<RowId>* out) const {
    FindOverlapping(q, q, out);
  }

  /// Live entries across both segments: tree entries of rows not
  /// hidden, plus the deltas. O(entries); not counted as a probe.
  size_t entry_count() const;

 private:
  std::shared_ptr<const IndexSegment> absolute_;
  std::shared_ptr<const IndexSegment> overlay_;
  std::shared_ptr<IndexStats> stats_;
};

/// The lazily built, mutex-guarded state of one segmented interval
/// index:
///
///  * the *absolute segment* — rows whose key does not depend on NOW —
///    built by a full heap scan and reused across NOW changes;
///  * the *NOW-dependent overlay* — the (typically few) rows whose key
///    moves with the transaction time — re-grounded whenever the NOW a
///    query runs under differs from the one it was built at.
///
/// This is what keeps the paper's NOW-override what-if browsing cheap:
/// re-evaluating the same query under many transaction times re-grounds
/// only the NOW-relative rows instead of rebuilding the whole index.
///
/// Writes do not force a rebuild either. A view requested after writes
/// asks the heap's change log which rows changed, hides their old
/// entries in both segments and re-keys the live ones into the delta of
/// the segment they now belong to. A full rebuild happens only when the
/// heap cannot say (log overflow, ROLLBACK), when the delta outgrows
/// kDeltaRebuildFraction, on first use and after Discard.
///
/// Updates are atomic: new segments are staged in locals and swapped
/// in only on success, so a key-extraction error leaves the previous
/// consistent state untouched. All decisions and swaps happen under an
/// internal mutex, making concurrent GetView calls from multiple query
/// threads safe.
class IntervalIndexState {
 public:
  IntervalIndexState() = default;

  IntervalIndexState(const IntervalIndexState&) = delete;
  IntervalIndexState& operator=(const IntervalIndexState&) = delete;

  /// Returns a probe view consistent with `heap`'s current version and
  /// `ctx`'s transaction time, catching up or rebuilding the stale
  /// segment(s) first. `column` selects the indexed column; `key_fn`
  /// extracts keys.
  Result<IntervalIndexView> GetView(const HeapTable& heap, size_t column,
                                    const IntervalKeyFn& key_fn,
                                    const TxContext& ctx);

  /// Drops the segments, so the next GetView rebuilds from the heap.
  /// CHECK calls this on an index it found inconsistent.
  void Discard();

  IndexStatsSnapshot stats() const { return stats_->Snapshot(); }

 private:
  Status Rebuild(const HeapTable& heap, size_t column,
                 const IntervalKeyFn& key_fn, const TxContext& ctx);
  Status CatchUp(const HeapTable& heap, size_t column,
                 const IntervalKeyFn& key_fn, const TxContext& ctx,
                 std::vector<RowId> changed);

  std::mutex mu_;

  // Both segments are null until the first build and after Discard.
  // They reflect heap version version_; the overlay's entries are
  // grounded at transaction time now_.
  std::shared_ptr<const IndexSegment> absolute_;
  std::shared_ptr<const IndexSegment> overlay_;
  uint64_t version_ = 0;
  int64_t now_ = 0;
  // Every live row whose key depends on NOW, sorted: what the overlay
  // re-grounds when NOW moves.
  std::vector<RowId> now_rows_;
  // The churn at which a catch-up becomes a full rebuild.
  size_t churn_limit_ = 0;

  std::shared_ptr<IndexStats> stats_ = std::make_shared<IndexStats>();
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_INDEX_SEGMENTED_INDEX_H_
