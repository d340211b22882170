#ifndef TIP_ENGINE_STORAGE_INTEGRITY_H_
#define TIP_ENGINE_STORAGE_INTEGRITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace tip::engine {

class Database;
class Table;
struct EvalContext;

/// The online verification half of the integrity subsystem: CHECK TABLE
/// / CHECK DATABASE run these against the live engine, and the offline
/// half (VerifyDurableDir) deep-scans a durable directory's files
/// without attaching them.

/// One CHECK verdict for one object (a table, or the WAL).
struct CheckFinding {
  std::string object;
  bool ok = true;
  /// On success, a summary ("rows=12 checksum=0x... indexes=1"); on
  /// failure, what exactly disagreed and where.
  std::string detail;
};

/// Scrubs one table online:
///   * recomputes the per-row content checksum over the live rows and
///     compares it against the incrementally maintained one;
///   * cross-checks every interval index bidirectionally against the
///     heap — each live row's key must be findable through the index,
///     and each index entry must point at a live row.
/// Corruption becomes an ok=false finding, not an error status; errors
/// are reserved for the guard (cancel/timeout/memory) and for index
/// rebuild failures. `eval` carries the statement guard, so a CHECK
/// over a huge table stays cancellable; it may be null in tests.
Result<CheckFinding> CheckTable(Database* db, Table* table,
                                EvalContext* eval);

/// What an offline (or online WAL) structural scan found.
struct OfflineVerifyReport {
  uint64_t snapshot_sections = 0;  // sections whose CRC and framing held
  uint64_t wal_records = 0;        // frames whose CRC and framing held
  bool torn_tail = false;  // the WAL ends mid-frame (benign: a crashed
                           // append; recovery truncates it)
  bool open_txn_tail = false;  // the WAL ends inside a transaction
                               // bracket (benign: recovery discards it)
  /// One line per integrity violation, located by file and byte offset.
  std::vector<std::string> problems;

  bool clean() const { return problems.empty(); }
};

/// Deep-scans a durable directory without attaching it: validates the
/// CHECKPOINT metadata, the snapshot it points at, and the WAL —
/// everything recovery would read, through recovery's own readers
/// (ScanSnapshot, ScanWal, WalkBrackets) and without side effects, so
/// a WAL problem is reported exactly when a strict attach would refuse.
/// Returns a non-OK status only when `dir` cannot be read at all;
/// corruption goes into the report.
Status VerifyDurableDir(const std::string& dir, OfflineVerifyReport* report);

/// The WAL leg of CHECK DATABASE and tip_verify(): `dir`/wal.log
/// checked as VerifyDurableDir checks it, read-only, so it is safe
/// against the live log of an attached database. A finding for the
/// object "wal", never an error status.
CheckFinding CheckWal(const std::string& dir);

}  // namespace tip::engine

#endif  // TIP_ENGINE_STORAGE_INTEGRITY_H_
