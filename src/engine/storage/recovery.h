#ifndef TIP_ENGINE_STORAGE_RECOVERY_H_
#define TIP_ENGINE_STORAGE_RECOVERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/storage/wal.h"
#include "engine/types/datum.h"

namespace tip::engine {

class Database;
class TypeRegistry;
namespace wire {
class Reader;
}  // namespace wire

/// Builders and appliers for the WAL's logical record bodies, plus the
/// checkpoint metadata file. Kept apart from Wal (which is
/// payload-agnostic framing) and from Database (which decides *when*
/// to log); this file owns *what* a record means.
///
/// Row addressing: UPDATE and DELETE records identify rows by their
/// *live ordinal* — the row's 0-based position among live rows in
/// row-id (insertion) order at the instant the statement ran — never
/// by RowId. RowIds are not stable across recovery: a snapshot compacts
/// tombstoned slots away, so the same logical row reloads under a
/// different RowId, but its live ordinal is invariant (tombstones
/// never appear in a live scan and compaction preserves order).
/// Ordinals are resolved against the pre-statement state, exactly as
/// the live execution's phase-1/phase-2 split does.

/// Appends one row's logical image (a varint-prefixed field per
/// column: 0 for NULL, n+1 for an n-byte serialized value) to `out`.
/// This is the WAL's row encoding, shared with the integrity
/// subsystem's per-row checksums so both hash exactly the same bytes,
/// and with the wire protocol's row chunks.
void EncodeRowImage(const Row& row, const TypeRegistry& types,
                    std::string* out);

/// Appends one field of a row image: the encoding of a single value
/// that EncodeRowImage applies per column. The wire protocol encodes its
/// bound parameters with it too.
void EncodeRowField(const Datum& value, const TypeRegistry& types,
                    std::string* out);

/// Reads back one field EncodeRowField wrote, as a value of `type`: the
/// one decoder of the row image, shared by WAL replay and the wire
/// protocol's parameters and row chunks.
Result<Datum> DecodeRowField(wire::Reader* reader, TypeId type,
                             const TypeRegistry& types);

/// kInsert body: table | u64 n | n row images.
std::string EncodeInsertBody(const std::string& table,
                             const std::vector<Row>& rows,
                             const TypeRegistry& types);

/// kMutate body: table | u64 n_del | n_del ordinals |
///               u64 n_upd | n_upd * (ordinal | row image).
std::string EncodeMutateBody(
    const std::string& table, const std::vector<uint64_t>& delete_ordinals,
    const std::vector<std::pair<uint64_t, const Row*>>& updates,
    const TypeRegistry& types);

/// kDdl body: the statement's SQL text, verbatim.
std::string EncodeDdlBody(std::string_view sql);

/// Applies one decoded WAL record to `db`. The caller must have put
/// the database into replay mode (no re-logging). Any framing or
/// application failure is Corruption — a WAL that survived its CRC
/// checks must replay cleanly.
Status ApplyWalRecord(Database* db, const WalRecord& record);

/// Best-effort extraction of the table one WAL record targets: the
/// name prefix of kInsert/kMutate bodies, the statement's target table
/// for kDdl. Empty when the record has no single target (transaction
/// brackets, non-table DDL) or the body is too damaged to yield a
/// name. Salvage recovery uses this to quarantine the one affected
/// table instead of refusing the whole open.
std::string WalRecordTableName(const WalRecord& record);

/// The checkpoint metadata file (`CHECKPOINT` in the data directory):
/// which snapshot file is current and the LSN it covers up to
/// (exclusive). Written atomically after the snapshot rename succeeds,
/// so a crash between the two leaves the previous pairing intact.
///
/// `function_ddl` carries the CREATE FUNCTION statements live at
/// checkpoint time: snapshots store only tables, and the WAL records
/// that created the functions are about to be rotated away, so the
/// metadata file is the one atomic place they survive. Recovery
/// re-executes them after the snapshot loads, before WAL replay.
///
/// Format: "TIPCKPT1" | u64 lsn | snapshot file name |
///         u64 #functions | function DDL* | u32 CRC-32.
struct CheckpointMeta {
  uint64_t lsn = 1;
  std::string snapshot_file;
  std::vector<std::string> function_ddl;
};

/// Reads `dir`/CHECKPOINT. nullopt when the file does not exist (a
/// fresh database); Corruption when it exists but fails validation.
Result<std::optional<CheckpointMeta>> ReadCheckpointMeta(
    const std::string& dir);

/// Atomically replaces `dir`/CHECKPOINT. Fault points:
/// "checkpoint.meta.*" (the atomic-write steps).
Status WriteCheckpointMeta(const std::string& dir,
                           const CheckpointMeta& meta);

/// Deletes snapshot files in `dir` other than `keep` (stale
/// checkpoints and strays from checkpoints that crashed between the
/// snapshot rename and the metadata update). Best-effort.
void RemoveStaleSnapshots(const std::string& dir, const std::string& keep);

}  // namespace tip::engine

#endif  // TIP_ENGINE_STORAGE_RECOVERY_H_
