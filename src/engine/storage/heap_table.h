#ifndef TIP_ENGINE_STORAGE_HEAP_TABLE_H_
#define TIP_ENGINE_STORAGE_HEAP_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "engine/types/datum.h"

namespace tip::engine {

/// Identifies one stored row: page number in the high bits, slot within
/// the page in the low bits. Stable for the lifetime of the row (updates
/// happen in place; slots of deleted rows are not reused, mirroring a
/// heap file before VACUUM).
using RowId = uint64_t;

inline constexpr uint32_t kRowsPerPage = 256;

/// How many of the most recent writes a heap remembers the row ids of
/// (see HeapTable::ChangedSince). An index that falls further behind
/// rebuilds from a full scan instead of catching up.
inline constexpr size_t kChangeLogCapacity = 1024;

inline RowId MakeRowId(uint32_t page, uint32_t slot) {
  return (static_cast<uint64_t>(page) << 32) | slot;
}
inline uint32_t RowIdPage(RowId id) { return static_cast<uint32_t>(id >> 32); }
inline uint32_t RowIdSlot(RowId id) {
  return static_cast<uint32_t>(id & 0xFFFFFFFFu);
}

/// An in-memory heap file: an append-only sequence of fixed-capacity
/// pages of rows with a per-page validity bitmap. This deliberately
/// mimics the access pattern of a disk heap (page-at-a-time scans,
/// stable row ids, tombstoned deletes) so that scan-vs-index benchmark
/// shapes carry over.
class HeapTable {
 public:
  HeapTable() = default;

  HeapTable(const HeapTable&) = delete;
  HeapTable& operator=(const HeapTable&) = delete;

  /// Appends a row; returns its stable id.
  RowId Insert(Row row);

  /// Tombstones a row. NotFound if the id is invalid or already deleted.
  Status Delete(RowId id);

  /// Replaces a row in place. NotFound if the id is invalid or deleted.
  Status Update(RowId id, Row row);

  /// Fetches a live row; nullptr if deleted or out of range.
  const Row* Get(RowId id) const;

  /// Copies the live rows in scan order — the logical table contents,
  /// captured as a transaction's undo image.
  std::vector<Row> SnapshotLiveRows() const;

  /// Discards everything and re-inserts `rows` as the new contents
  /// (ROLLBACK restoring an undo image). RowIds are compacted exactly
  /// as a snapshot restore compacts them, and the version counter keeps
  /// advancing; the change log forgets every earlier version, so
  /// indexes over the heap rebuild instead of catching up.
  void ResetTo(std::vector<Row> rows);

  /// Number of live rows.
  size_t row_count() const { return live_rows_; }

  /// Number of allocated pages (the unit morsels are carved from).
  uint32_t page_count() const {
    return static_cast<uint32_t>(pages_.size());
  }

  /// Forward scan over live rows in row-id order, restricted to pages
  /// in [page_begin, page_end).
  class Cursor {
   public:
    explicit Cursor(const HeapTable* table)
        : Cursor(table, 0, table->page_count()) {}
    Cursor(const HeapTable* table, uint32_t page_begin, uint32_t page_end)
        : table_(table), page_(page_begin), page_end_(page_end) {}

    /// Advances to the next live row; returns false at end of range.
    bool Next(RowId* id, const Row** row);

   private:
    const HeapTable* table_;
    uint32_t page_;
    uint32_t page_end_;
    uint32_t slot_ = 0;
  };

  Cursor Scan() const { return Cursor(this); }
  /// Scan over the page range [page_begin, page_end) only.
  Cursor ScanPages(uint32_t page_begin, uint32_t page_end) const {
    return Cursor(this, page_begin, std::min(page_end, page_count()));
  }

  /// Monotonically increasing change counter; bumped by every write.
  /// Indexes use it to detect staleness.
  uint64_t version() const { return version_; }

  /// Appends to `out` the ids of the rows the writes after version
  /// `since` touched (inserted, updated or deleted; in write order,
  /// with repeats) and returns true. Returns false when the heap no
  /// longer knows: `since` predates the last kChangeLogCapacity writes
  /// or the last ResetTo.
  bool ChangedSince(uint64_t since, std::vector<RowId>* out) const;

  /// Hash of one row's logical content. Installed by the owning
  /// database so the heap stays ignorant of serialization.
  using RowHasher = std::function<uint64_t(const Row&)>;

  /// Installs (or replaces) the hasher and recomputes the running
  /// checksum from the current live rows.
  void set_row_hasher(RowHasher hasher);
  const RowHasher& row_hasher() const { return row_hasher_; }

  /// Order-independent wrapping sum of per-row hashes over the live
  /// rows, maintained incrementally by Insert/Update/Delete/ResetTo;
  /// 0 while no hasher is installed.
  uint64_t content_checksum() const { return content_checksum_; }

 private:
  struct Page {
    std::vector<Row> rows;       // size() <= kRowsPerPage
    std::vector<bool> live;      // parallel validity bitmap
  };

  void AddRowHash(const Row& row);
  void SubRowHash(const Row& row);
  /// Bumps the version and logs `id` as the row that write touched.
  void RecordWrite(RowId id);

  std::vector<std::unique_ptr<Page>> pages_;
  size_t live_rows_ = 0;
  uint64_t version_ = 0;
  // A ring of the rows the last kChangeLogCapacity writes touched: the
  // row of version v sits at v % kChangeLogCapacity. Only versions
  // after log_start_ (the last ResetTo) are in it.
  std::vector<RowId> change_log_;
  uint64_t log_start_ = 0;
  RowHasher row_hasher_;
  uint64_t content_checksum_ = 0;
};

/// One contiguous page range of a heap, claimed by a scan worker.
struct Morsel {
  uint32_t page_begin = 0;
  uint32_t page_end = 0;  // exclusive
};

/// Carves a heap into fixed-size morsels handed out atomically: any
/// number of workers call Next concurrently until the table is
/// exhausted, so fast workers naturally take more morsels than slow
/// ones (morsel-driven scheduling). The heap must not be written to
/// while a MorselSource over it is in use.
class MorselSource {
 public:
  MorselSource(const HeapTable* table, uint32_t pages_per_morsel)
      : table_(table),
        pages_per_morsel_(std::max<uint32_t>(pages_per_morsel, 1)) {}

  /// Claims the next unclaimed page range; false when the heap is
  /// exhausted. Thread-safe.
  bool Next(Morsel* out) {
    const uint32_t total = table_->page_count();
    const uint32_t begin =
        next_page_.fetch_add(pages_per_morsel_, std::memory_order_relaxed);
    if (begin >= total) return false;
    out->page_begin = begin;
    out->page_end = std::min(begin + pages_per_morsel_, total);
    return true;
  }

 private:
  const HeapTable* table_;
  const uint32_t pages_per_morsel_;
  std::atomic<uint32_t> next_page_{0};
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_STORAGE_HEAP_TABLE_H_
