#ifndef TIP_ENGINE_STORAGE_SNAPSHOT_H_
#define TIP_ENGINE_STORAGE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tip::engine {

class Database;

/// Serializes the whole catalog — schemas, rows, interval-index
/// definitions — into a single binary snapshot using each type's
/// send/receive support functions (the "efficient binary format"). NOW
/// stays symbolic in the snapshot: open-ended rows reload open-ended.
///
/// Format v2 (little-endian, length-prefixed, crash-detectable):
///   TIPSNAP2 | #tables | per table section:
///     body length | body CRC-32 | body
///   | footer length | footer:
///     TIPFOOT1 | #tables | payload bytes | footer CRC-32
/// where each section body is:
///     name | #columns | (column name, type name)* |
///     #indexes | (index name, column position)* |
///     #rows | per row: (null flag | payload length | payload)*
///
/// Every section CRC is verified before any table is created, so a
/// torn or bit-rotted file fails with Status::Corruption and leaves the
/// database untouched. The footer pins the table count and payload
/// size, so truncation after the last section is also detected.
///
/// Types are recorded by *name*, so a snapshot can only be restored
/// into a database with the same extensions installed (for TIP data,
/// install the DataBlade first); unknown type names fail cleanly.
Result<std::string> SaveSnapshot(const Database& db);

/// Writes SaveSnapshot's bytes crash-safely: to `path`.tmp first, then
/// fsync, then an atomic rename over `path`, then an fsync of the
/// parent directory (without which the rename itself can be rolled
/// back by a power cut) — a crash mid-save leaves any previous
/// snapshot at `path` intact. Fault points: "snapshot.open",
/// "snapshot.write", "snapshot.fsync", "snapshot.close",
/// "snapshot.rename", "snapshot.dirsync".
Status SaveSnapshotToFile(const Database& db, std::string_view path);

/// One problem ScanSnapshot found, located by byte offset.
struct SnapshotDamage {
  static constexpr size_t kNoSection = static_cast<size_t>(-1);
  size_t section = kNoSection;  // the damaged section, if it is one
  std::string table;    // best-effort name of that section's table
  uint64_t offset = 0;  // where the damage starts
  std::string cause;
  /// One line naming the section (or the footer) and the cause.
  std::string what() const;
};

/// What ScanSnapshot found in snapshot bytes.
struct SnapshotScan {
  /// A table section whose framing and CRC held.
  struct Section {
    std::string_view body;
    size_t index = 0;     // position in the table-section sequence
    uint64_t offset = 0;  // byte offset of the body in the file
  };
  uint64_t table_count = 0;  // what the header claims
  std::vector<Section> sections;
  std::vector<SnapshotDamage> damage;  // in file order
};

/// The one reader of the layout above, shared by LoadSnapshot,
/// SalvageSnapshot and the offline verifier: splits `bytes` into its
/// intact sections and reports every section that fails its CRC (the
/// framing is length-prefixed, so later sections stay locatable), a
/// truncation (which loses the rest) and the first footer problem.
/// Corruption only when the magic or the table count is unusable.
Result<SnapshotScan> ScanSnapshot(std::string_view bytes);

/// Restores a snapshot into `db`. Fails with Status::Corruption on any
/// damage ScanSnapshot reports, before any table is created, and on a
/// section whose contents break their bounds; with AlreadyExists if
/// any snapshotted table already exists (restore into a fresh
/// database). A failed load drops every table it had already created:
/// all or nothing. Fault point: "snapshot.section" (per section, in
/// file order, fails it as a checksum mismatch would).
Status LoadSnapshot(Database* db, std::string_view bytes);

/// Reads `path` and restores it.
Status LoadSnapshotFromFile(Database* db, std::string_view path);

/// What SalvageSnapshot managed to pull out of a damaged file.
struct SalvageReport {
  size_t tables_recovered = 0;
  size_t tables_skipped = 0;  // bad CRC, parse failure, or truncated
  std::string detail;         // one line per damage entry
  /// Every problem, located precisely enough for an operator to
  /// inspect it: each section that could not be recovered (with a
  /// best-effort table name pulled from the possibly corrupt body, so
  /// salvage recovery can quarantine the right table instead of an
  /// anonymous slot) and any footer damage.
  std::vector<SnapshotDamage> damage;
};

/// Best-effort recovery from a damaged snapshot: loads every table
/// section whose CRC and contents check out, skips the rest, and
/// reports truncation and footer damage instead of failing on them.
/// Only the magic and the table count must be intact. `report`
/// (optional) says what was kept and what was lost.
Status SalvageSnapshot(Database* db, std::string_view bytes,
                       SalvageReport* report);

}  // namespace tip::engine

#endif  // TIP_ENGINE_STORAGE_SNAPSHOT_H_
