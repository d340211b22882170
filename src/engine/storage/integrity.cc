#include "engine/storage/integrity.h"

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/durable_fs.h"
#include "engine/catalog/catalog.h"
#include "engine/database.h"
#include "engine/storage/heap_table.h"
#include "engine/storage/recovery.h"
#include "engine/storage/snapshot.h"
#include "engine/storage/wal.h"
#include "engine/types/eval_context.h"

namespace tip::engine {

namespace {

std::string Hex64(uint64_t v) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const unsigned digit = (v >> shift) & 0xF;
    if (!started && digit == 0 && shift != 0) continue;
    started = true;
    out.push_back(kDigits[digit]);
  }
  return out;
}

// -- Online table scrub ------------------------------------------------------

/// Cross-checks one interval index against the heap, both directions,
/// whatever the CHECK's NOW: entries are enumerated and compared as
/// stored, never evaluated at a NOW. Appends failures to `finding`;
/// returns non-OK only for guard trips. An index found inconsistent
/// drops its segment, so the next probe rebuilds it from the heap — the
/// source of truth — instead of serving the rot until a full rebuild.
Status CheckOneIndex(Database* db, Table* table, const IntervalIndexDef& def,
                     EvalContext* eval, CheckFinding* finding) {
  const TxContext tx = eval != nullptr ? eval->tx : db->CurrentTx();
  TIP_ASSIGN_OR_RETURN(IntervalIndexView view,
                       table->GetIntervalIndex(def.column, tx));

  bool consistent = true;
  auto fail = [finding, &def, &consistent](std::string what) {
    consistent = false;
    finding->ok = false;
    if (!finding->detail.empty()) finding->detail += "; ";
    finding->detail += "index '" + def.name + "': " + std::move(what);
  };

  // Backward: every entry in the index must address a live heap row,
  // and no row may have two.
  std::unordered_map<RowId, IntervalKey> indexed;
  for (const IntervalEntry& entry : view.Entries()) {
    if (eval != nullptr) TIP_RETURN_IF_ERROR(eval->CheckGuard());
    if (table->heap().Get(entry.row) == nullptr) {
      fail("entry for row id " + std::to_string(entry.row) +
           " which is not a live heap row");
    }
    if (!indexed.emplace(entry.row, entry.key).second) {
      fail("row id " + std::to_string(entry.row) + " is indexed twice");
    }
  }

  // Forward: every live row with a value must be indexed under exactly
  // the key its value has (a stale key would answer probes wrongly even
  // though the row id is present).
  HeapTable::Cursor cursor = table->heap().Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) {
    if (eval != nullptr) TIP_RETURN_IF_ERROR(eval->CheckGuard());
    const Datum& value = (*row)[def.column];
    if (value.is_null()) continue;
    auto it = indexed.find(id);
    if (it == indexed.end()) {
      fail("live row id " + std::to_string(id) +
           " is missing from the index");
    } else if (it->second != def.key_fn(value)) {
      fail("live row id " + std::to_string(id) +
           " is indexed under a key its value does not have");
    }
  }
  if (!consistent) def.state->Discard();
  return Status::OK();
}

}  // namespace

Result<CheckFinding> CheckTable(Database* db, Table* table,
                                EvalContext* eval) {
  CheckFinding finding;
  finding.object = table->name();

  // Checksum leg: recompute from the live rows with the installed
  // hasher and compare against the incrementally maintained sum.
  const HeapTable& heap = table->heap();
  uint64_t recomputed = 0;
  size_t rows = 0;
  HeapTable::Cursor cursor = heap.Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) {
    if (eval != nullptr) TIP_RETURN_IF_ERROR(eval->CheckGuard());
    ++rows;
    recomputed += heap.row_hasher()(*row);
  }
  if (recomputed != heap.content_checksum()) {
    finding.ok = false;
    finding.detail = "content checksum mismatch: maintained " +
                     Hex64(heap.content_checksum()) + ", recomputed " +
                     Hex64(recomputed) + " over " + std::to_string(rows) +
                     " live row(s)";
  }

  // Index leg: every declared interval index, both directions.
  for (const IntervalIndexDef& def : table->interval_indexes()) {
    TIP_RETURN_IF_ERROR(CheckOneIndex(db, table, def, eval, &finding));
  }

  if (finding.ok) {
    finding.detail = "rows=" + std::to_string(rows) +
                     " checksum=" + Hex64(recomputed) + " indexes=" +
                     std::to_string(table->interval_indexes().size());
  }
  return finding;
}

// -- Offline scans -----------------------------------------------------------

namespace {

void Problem(OfflineVerifyReport* report, const std::string& label,
             uint64_t offset, std::string what) {
  report->problems.push_back(label + " (byte offset " +
                             std::to_string(offset) + "): " +
                             std::move(what));
}

/// Non-OK only when `path` cannot be read (NotFound when absent).
Status VerifyWalFile(const std::string& path, uint64_t from_lsn,
                     OfflineVerifyReport* report) {
  Result<WalScan> scan = ScanWal(path);
  if (!scan.ok()) {
    if (scan.status().code() != StatusCode::kCorruption) {
      return scan.status();
    }
    Problem(report, path, 0, std::string(scan.status().message()));
    return Status::OK();
  }
  const WalReplay replay = WalkBrackets(*scan, from_lsn);
  report->wal_records = scan->records.size();
  report->torn_tail = scan->torn_tail;
  report->open_txn_tail = replay.open_tail;
  if (!replay.damage.empty()) {
    Problem(report, path, replay.damage_offset,
            "WAL record lsn=" + std::to_string(replay.damage_lsn) + ": " +
                replay.damage);
  }
  return Status::OK();
}

/// Section *contents* are not decoded (that needs the type registry);
/// the CRC covers them.
void VerifySnapshotBytes(std::string_view bytes, const std::string& label,
                         OfflineVerifyReport* report) {
  Result<SnapshotScan> scan = ScanSnapshot(bytes);
  if (!scan.ok()) {
    Problem(report, label, 0, std::string(scan.status().message()));
    return;
  }
  report->snapshot_sections = scan->sections.size();
  for (const SnapshotDamage& damage : scan->damage) {
    Problem(report, label, damage.offset, damage.what());
  }
}

}  // namespace

Status VerifyDurableDir(const std::string& dir,
                        OfflineVerifyReport* report) {
  // The checkpoint metadata first: it names the snapshot everything
  // else hangs off. ReadCheckpointMeta is already read-only.
  Result<std::optional<CheckpointMeta>> meta = ReadCheckpointMeta(dir);
  if (!meta.ok()) {
    report->problems.push_back(dir + "/CHECKPOINT: " +
                               std::string(meta.status().message()));
  } else if (meta->has_value()) {
    const std::string snap_path = dir + "/" + (*meta)->snapshot_file;
    Result<std::string> snap = fs::ReadFile(snap_path);
    if (!snap.ok()) {
      report->problems.push_back(
          snap_path + ": checkpointed snapshot unreadable: " +
          std::string(snap.status().message()));
    } else {
      VerifySnapshotBytes(*snap, snap_path, report);
    }
  }

  const std::string wal_path = dir + "/wal.log";
  const uint64_t from_lsn =
      meta.ok() && meta->has_value() ? (*meta)->lsn : 1;
  Status wal_scanned = VerifyWalFile(wal_path, from_lsn, report);
  if (!wal_scanned.ok()) {
    if (wal_scanned.code() == StatusCode::kNotFound) {
      // A directory that has never been attached has no WAL; only a
      // missing WAL *next to* checkpoint state is suspicious.
      if (meta.ok() && meta->has_value()) {
        report->problems.push_back(wal_path +
                                   ": missing next to checkpoint state");
      }
    } else {
      return wal_scanned;
    }
  }
  return Status::OK();
}

CheckFinding CheckWal(const std::string& dir) {
  CheckFinding finding;
  finding.object = "wal";
  Result<std::optional<CheckpointMeta>> meta = ReadCheckpointMeta(dir);
  const uint64_t from_lsn =
      meta.ok() && meta->has_value() ? (*meta)->lsn : 1;
  OfflineVerifyReport report;
  Status scanned = VerifyWalFile(dir + "/wal.log", from_lsn, &report);
  if (!scanned.ok()) report.problems.push_back(std::string(scanned.message()));
  if (!report.clean()) {
    finding.ok = false;
    finding.detail = report.problems.front();
  } else {
    finding.detail = "records=" + std::to_string(report.wal_records);
    if (report.torn_tail) finding.detail += " torn_tail";
    if (report.open_txn_tail) finding.detail += " open_txn_tail";
  }
  return finding;
}

}  // namespace tip::engine
