#include "engine/storage/integrity.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/crc32.h"
#include "common/durable_fs.h"
#include "engine/catalog/catalog.h"
#include "engine/database.h"
#include "engine/storage/heap_table.h"
#include "engine/storage/recovery.h"
#include "engine/storage/wire_format.h"
#include "engine/types/eval_context.h"

namespace tip::engine {

namespace {

using wire::Reader;

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

/// Cross-checks one interval index against the heap, both directions.
/// Appends failures to `finding`; returns non-OK only for guard trips
/// and index rebuild errors. An index found inconsistent drops its
/// segments, so the next probe rebuilds it from the heap — the source
/// of truth — instead of serving the rot until a full rebuild.
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

  // Backward: every entry in the index must address a live heap row.
  // One full-range probe enumerates both segments.
  std::vector<RowId> indexed;
  view.FindOverlapping(INT64_MIN, INT64_MAX, &indexed);
  std::unordered_set<RowId> indexed_set;
  indexed_set.reserve(indexed.size());
  for (RowId id : indexed) {
    if (eval != nullptr) TIP_RETURN_IF_ERROR(eval->CheckGuard());
    if (table->heap().Get(id) == nullptr) {
      fail("entry for row id " + std::to_string(id) +
           " which is not a live heap row");
    }
    indexed_set.insert(id);
  }

  // Forward: every live row whose key grounds non-empty must be
  // reachable through the index.
  HeapTable::Cursor cursor = table->heap().Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) {
    if (eval != nullptr) TIP_RETURN_IF_ERROR(eval->CheckGuard());
    const Datum& value = (*row)[def.column];
    if (value.is_null()) continue;
    TIP_ASSIGN_OR_RETURN(IntervalKey key, def.key_fn(value, tx));
    if (key.empty) continue;
    if (indexed_set.count(id) == 0) {
      fail("live row id " + std::to_string(id) +
           " with key [" + std::to_string(key.start) + ", " +
           std::to_string(key.end) + "] is missing from the index");
      continue;
    }
    // The entry exists; confirm the interval actually stored for it
    // covers the key (a stale segment would answer range probes
    // wrongly even though the row id is present somewhere).
    std::vector<RowId> hits;
    view.FindOverlapping(key.start, key.end, &hits);
    if (std::find(hits.begin(), hits.end(), id) == hits.end()) {
      fail("live row id " + std::to_string(id) +
           " is indexed under an interval that does not overlap its key");
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
  HeapTable& heap = table->heap();
  const HeapTable::RowHasher& hasher = heap.row_hasher();
  uint64_t recomputed = 0;
  bool recompute_valid = hasher != nullptr;
  size_t rows = 0;
  if (hasher != nullptr) {
    HeapTable::Cursor cursor = heap.Scan();
    RowId id;
    const Row* row;
    while (cursor.Next(&id, &row)) {
      if (eval != nullptr) TIP_RETURN_IF_ERROR(eval->CheckGuard());
      ++rows;
      if (!recompute_valid) continue;
      std::optional<uint64_t> h = hasher(*row);
      if (h.has_value()) {
        recomputed += *h;
      } else {
        recompute_valid = false;  // checksums switched off mid-scan
      }
    }
  } else {
    rows = heap.row_count();
  }

  std::string checksum_note;
  if (!recompute_valid) {
    checksum_note = "checksums off";
  } else if (heap.checksum_maintained()) {
    if (recomputed != heap.content_checksum()) {
      finding.ok = false;
      finding.detail = "content checksum mismatch: maintained " +
                       Hex64(heap.content_checksum()) + ", recomputed " +
                       Hex64(recomputed) +
                       " over " + std::to_string(rows) + " live row(s)";
    } else {
      checksum_note = "checksum=" + Hex64(recomputed);
    }
  } else {
    // Maintenance lapsed (checksums were off for some write); the scan
    // above is already the reseed — adopt it.
    heap.ReseedChecksum();
    checksum_note = "checksum reseeded to " + Hex64(heap.content_checksum());
  }

  // Index leg: every declared interval index, both directions.
  for (const IntervalIndexDef& def : table->interval_indexes()) {
    TIP_RETURN_IF_ERROR(CheckOneIndex(db, table, def, eval, &finding));
  }

  if (finding.ok) {
    finding.detail = "rows=" + std::to_string(rows);
    if (!checksum_note.empty()) finding.detail += " " + checksum_note;
    finding.detail +=
        " indexes=" + std::to_string(table->interval_indexes().size());
  }
  return finding;
}

// -- Offline scans -----------------------------------------------------------

namespace {

constexpr size_t kMagicLen = 8;
constexpr char kWalMagic[] = "TIPWAL01";
constexpr char kSnapMagicV2[] = "TIPSNAP2";
constexpr char kFooterMagic[] = "TIPFOOT1";
constexpr size_t kWalHeaderLen = kMagicLen + 8 + 4;
constexpr size_t kWalFrameHeaderLen = 4 + 4;
constexpr uint64_t kMaxRecordBytes = 1ull << 30;
constexpr uint64_t kMaxTables = 1ull << 20;

void Problem(OfflineVerifyReport* report, const std::string& label,
             uint64_t offset, std::string what) {
  report->problems.push_back(label + " (byte offset " +
                             std::to_string(offset) + "): " +
                             std::move(what));
}

}  // namespace

Status VerifyWalFile(const std::string& path, OfflineVerifyReport* report) {
  TIP_ASSIGN_OR_RETURN(std::string bytes, fs::ReadFile(path));
  const std::string_view data(bytes);

  if (data.size() < kWalHeaderLen ||
      std::memcmp(data.data(), kWalMagic, kMagicLen) != 0) {
    Problem(report, path, 0, "WAL header magic missing or short");
    return Status::OK();
  }
  uint64_t start_lsn;
  uint32_t header_crc;
  std::memcpy(&start_lsn, data.data() + kMagicLen, 8);
  std::memcpy(&header_crc, data.data() + kMagicLen + 8, 4);
  if (Crc32(data.substr(0, kMagicLen + 8)) != header_crc) {
    Problem(report, path, 0, "WAL header checksum mismatch");
    return Status::OK();
  }

  uint64_t expected_lsn = start_lsn;
  bool in_txn = false;
  size_t pos = kWalHeaderLen;
  while (pos < data.size()) {
    if (data.size() - pos < kWalFrameHeaderLen) {
      report->torn_tail = true;  // a crashed append's partial frame
      break;
    }
    uint32_t len;
    uint32_t crc;
    std::memcpy(&len, data.data() + pos, 4);
    std::memcpy(&crc, data.data() + pos + 4, 4);
    if (len > kMaxRecordBytes || data.size() - pos - kWalFrameHeaderLen < len) {
      report->torn_tail = true;
      break;
    }
    const std::string_view payload =
        data.substr(pos + kWalFrameHeaderLen, len);
    if (Crc32(payload) != crc) {
      // A bad CRC on the *last* frame is a torn append; earlier in the
      // file — with intact frames after it — it is bit rot.
      if (pos + kWalFrameHeaderLen + len == data.size()) {
        report->torn_tail = true;
      } else {
        Problem(report, path, pos,
                "WAL frame checksum mismatch for LSN " +
                    std::to_string(expected_lsn) +
                    " (not at the tail: bit rot, not a torn append)");
      }
      break;  // framing after a bad frame cannot be trusted either way
    }
    Reader payload_reader(payload);
    Result<uint64_t> lsn = payload_reader.U64();
    Result<uint8_t> kind = payload_reader.U8();
    if (!lsn.ok() || !kind.ok()) {
      Problem(report, path, pos, "WAL frame too short for LSN and kind");
      break;
    }
    if (*lsn != expected_lsn) {
      Problem(report, path, pos,
              "WAL record out of sequence: got LSN " + std::to_string(*lsn) +
                  ", want " + std::to_string(expected_lsn));
      break;
    }
    if (*kind < 1 || *kind > 6) {
      Problem(report, path, pos,
              "WAL record " + std::to_string(*lsn) + " has unknown kind " +
                  std::to_string(*kind));
      break;
    }
    const auto record_kind = static_cast<WalRecordKind>(*kind);
    if (record_kind == WalRecordKind::kTxnBegin) {
      if (in_txn) {
        Problem(report, path, pos,
                "WAL record " + std::to_string(*lsn) +
                    ": TXN_BEGIN inside an open transaction bracket");
      }
      in_txn = true;
    } else if (record_kind == WalRecordKind::kTxnCommit ||
               record_kind == WalRecordKind::kTxnAbort) {
      if (!in_txn) {
        Problem(report, path, pos,
                "WAL record " + std::to_string(*lsn) +
                    ": bracket close without TXN_BEGIN");
      }
      in_txn = false;
    }
    ++report->wal_records;
    ++expected_lsn;
    pos += kWalFrameHeaderLen + len;
  }
  // A bracket still open at the end of the log is the normal
  // crash-before-commit shape; recovery discards it.
  report->open_txn_tail = in_txn;
  return Status::OK();
}

void VerifySnapshotBytes(std::string_view bytes, const std::string& label,
                         OfflineVerifyReport* report) {
  if (bytes.size() < kMagicLen ||
      std::memcmp(bytes.data(), kSnapMagicV2, kMagicLen) != 0) {
    Problem(report, label, 0, "snapshot v2 magic missing or short");
    return;
  }
  Reader reader(bytes.substr(kMagicLen));
  Result<uint64_t> table_count = reader.U64();
  if (!table_count.ok() || *table_count > kMaxTables) {
    Problem(report, label, kMagicLen,
            "snapshot table count missing or implausible");
    return;
  }
  for (uint64_t t = 0; t < *table_count; ++t) {
    const uint64_t section_at = kMagicLen + reader.pos();
    Result<uint64_t> len = reader.U64();
    Result<uint32_t> crc = len.ok() ? reader.U32() : len.status();
    Result<std::string_view> body =
        crc.ok() ? reader.Bytes(*len) : crc.status();
    if (!body.ok()) {
      Problem(report, label, section_at,
              "snapshot truncated in section " + std::to_string(t) + " of " +
                  std::to_string(*table_count));
      return;
    }
    if (Crc32(*body) != *crc) {
      Problem(report, label, section_at,
              "snapshot section " + std::to_string(t) +
                  " checksum mismatch (" + std::to_string(body->size()) +
                  " bytes)");
      // Framing is length-prefixed, so later sections remain locatable
      // even past a corrupt body — keep scanning for a full damage map.
      continue;
    }
    ++report->snapshot_sections;
  }
  const uint64_t payload_bytes = kMagicLen + reader.pos();
  const uint64_t footer_at = payload_bytes;
  Result<uint64_t> footer_len = reader.U64();
  Result<std::string_view> footer =
      footer_len.ok() ? reader.Bytes(*footer_len) : footer_len.status();
  if (!footer.ok()) {
    Problem(report, label, footer_at, "snapshot footer missing or truncated");
    return;
  }
  Reader f(*footer);
  Result<std::string_view> fmagic = f.Bytes(kMagicLen);
  if (!fmagic.ok() ||
      std::memcmp(fmagic->data(), kFooterMagic, kMagicLen) != 0) {
    Problem(report, label, footer_at, "snapshot footer magic mismatch");
    return;
  }
  Result<uint64_t> footer_tables = f.U64();
  Result<uint64_t> footer_payload = footer_tables.ok()
                                        ? f.U64()
                                        : footer_tables.status();
  Result<uint32_t> footer_crc =
      footer_payload.ok() ? f.U32() : footer_payload.status();
  if (!footer_crc.ok()) {
    Problem(report, label, footer_at, "snapshot footer truncated");
    return;
  }
  if (Crc32(footer->substr(0, footer->size() - 4)) != *footer_crc) {
    Problem(report, label, footer_at, "snapshot footer checksum mismatch");
    return;
  }
  if (*footer_tables != *table_count || *footer_payload != payload_bytes) {
    Problem(report, label, footer_at,
            "snapshot footer disagrees with contents (footer: " +
                std::to_string(*footer_tables) + " tables, " +
                std::to_string(*footer_payload) + " payload bytes; file: " +
                std::to_string(*table_count) + " tables, " +
                std::to_string(payload_bytes) + " payload bytes)");
    return;
  }
  if (!reader.AtEnd()) {
    Problem(report, label, kMagicLen + reader.pos(),
            "trailing bytes after snapshot footer");
  }
}

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
  Status wal_scanned = VerifyWalFile(wal_path, report);
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

}  // namespace tip::engine
