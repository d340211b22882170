#ifndef TIP_ENGINE_CATALOG_CATALOG_H_
#define TIP_ENGINE_CATALOG_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/tx_context.h"
#include "engine/index/interval_index.h"
#include "engine/index/segmented_index.h"
#include "engine/storage/heap_table.h"
#include "engine/types/datum.h"
#include "engine/types/type.h"

namespace tip::engine {

/// One column of a table.
struct Column {
  std::string name;  // stored lower-case; lookups are case-insensitive
  TypeId type;
};

/// A secondary interval index over one column (see IntervalIndexState).
/// The index materializes lazily and a table write is replayed into its
/// delta. (Indexing NOW-relative data is the difficulty Bliujute et al.
/// discuss; keying each row without a NOW and evaluating the key at each
/// probe's NOW leaves a change of the transaction time nothing to redo.)
struct IntervalIndexDef {
  std::string name;
  size_t column;
  IntervalKeyFn key_fn;

  /// Lazily built segment + counters. Behind a pointer both to keep
  /// the def movable (std::mutex is not) and to give the const query
  /// path interior mutability without `mutable` members.
  std::unique_ptr<IntervalIndexState> state;

  IndexStatsSnapshot stats() const { return state->stats(); }
};

/// A named table: schema + heap storage + secondary indexes.
class Table {
 public:
  Table(std::string name, std::vector<Column> columns);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Case-insensitive column lookup; -1 on miss.
  int FindColumn(std::string_view name) const;

  HeapTable& heap() { return heap_; }
  const HeapTable& heap() const { return heap_; }

  /// Declares an interval index over `column`. AlreadyExists on a
  /// duplicate index name; InvalidArgument on a bad column.
  Status CreateIntervalIndex(std::string_view index_name, size_t column,
                             IntervalKeyFn key_fn);

  Status DropIndex(std::string_view index_name);

  /// Returns a probe view over the (lazily rebuilt) interval index on
  /// `column`, answering at transaction time `ctx`; NotFound if no index
  /// covers the column. Safe to call concurrently from multiple threads.
  Result<IntervalIndexView> GetIntervalIndex(size_t column,
                                             const TxContext& ctx) const;

  /// True iff some interval index is declared over `column`.
  bool HasIntervalIndex(size_t column) const;

  /// Counters of the interval index on `column`; nullopt if none.
  std::optional<IndexStatsSnapshot> IntervalIndexStats(size_t column) const;

  const std::vector<IntervalIndexDef>& interval_indexes() const {
    return interval_indexes_;
  }

 private:
  std::string name_;
  std::vector<Column> columns_;
  HeapTable heap_;
  std::vector<IntervalIndexDef> interval_indexes_;
};

/// The database catalog: name-addressable tables.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates a table; AlreadyExists on duplicate name, InvalidArgument
  /// on an empty or duplicate-column schema.
  Result<Table*> CreateTable(std::string_view name,
                             std::vector<Column> columns);

  /// Drops a table, or clears a name-only quarantine entry for a table
  /// whose storage never made it back (salvaged snapshot section lost).
  /// NotFound only when the name matches neither.
  Status DropTable(std::string_view name);

  /// Case-insensitive lookup; NotFound on miss, Corruption when the
  /// table is quarantined (the single enforcement point keeping both
  /// the planner and DML away from damaged tables).
  Result<Table*> GetTable(std::string_view name);
  Result<const Table*> GetTable(std::string_view name) const;

  /// Lookup that ignores quarantine — for integrity tooling that must
  /// inspect a damaged table. NotFound on miss.
  Result<Table*> GetTableAnyState(std::string_view name);

  std::vector<std::string> TableNames() const;

  /// Marks `name` as quarantined with a human-readable cause: lookups
  /// through GetTable return Corruption until the table is dropped. The
  /// name need not exist in the catalog (a snapshot section can be lost
  /// before the schema was ever readable). Fires the change listener so
  /// cached plans holding raw Table pointers are invalidated.
  void Quarantine(std::string_view name, std::string cause);

  bool IsQuarantined(std::string_view name) const;

  /// (table, cause) pairs, sorted by table name.
  std::vector<std::pair<std::string, std::string>> QuarantineList() const;

  size_t quarantine_count() const { return quarantined_.size(); }

  /// Installs the per-row content hasher applied to every current and
  /// future table's heap (recomputing their running checksums).
  void SetRowHasher(HeapTable::RowHasher hasher);

  /// Invoked after every successful CreateTable/DropTable. The Database
  /// routes this to its catalog-version bump: cached plans hold raw
  /// Table pointers, so every table-set change must invalidate them.
  void SetChangeListener(std::function<void()> fn) {
    on_change_ = std::move(fn);
  }

 private:
  void NotifyChanged() {
    if (on_change_) on_change_();
  }

  std::vector<std::unique_ptr<Table>> tables_;
  std::function<void()> on_change_;
  std::map<std::string, std::string> quarantined_;  // lower-case name → cause
  HeapTable::RowHasher row_hasher_;
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_CATALOG_CATALOG_H_
