#ifndef TIP_ENGINE_STORAGE_WAL_H_
#define TIP_ENGINE_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tip::engine {

/// When (and whether) a WAL append reaches stable storage before the
/// statement is acknowledged:
///   kOff    nothing is logged at all (the pre-WAL engine; data since
///           the last checkpoint dies with the process).
///   kAsync  records reach the kernel (write) but are never fsynced by
///           the append path: a process kill loses nothing, a power
///           cut may lose an unbounded tail.
///   kGroup  like kAsync, plus an fsync every `group_records` appends
///           (group commit): a power cut loses at most one batch. The
///           default for durable databases.
///   kSync   fsync on every append: an acknowledged statement is on
///           disk, full stop.
enum class WalMode { kOff, kAsync, kGroup, kSync };

/// Parses "off|async|group|sync" (lower-case); InvalidArgument else.
Result<WalMode> ParseWalMode(std::string_view word);
std::string_view WalModeName(WalMode mode);

/// Logical record kinds. The WAL is logical, not physical: row images
/// and statement text, not page deltas, so replay goes through the
/// same code paths as live execution.
enum class WalRecordKind : uint8_t {
  kInsert = 1,     // table + appended row images
  kMutate = 2,     // table + deleted/updated rows addressed by live ordinal
  kDdl = 3,        // the statement's SQL text, re-executed on replay
  kTxnBegin = 4,   // opens a transaction bracket (empty body)
  kTxnCommit = 5,  // closes the bracket; records inside it are now real
  kTxnAbort = 6,   // closes the bracket; records inside it never happened
};

/// One decoded log record. `body` is kind-specific and built/parsed by
/// the recovery layer (the WAL itself is payload-agnostic).
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordKind kind = WalRecordKind::kDdl;
  std::string body;
};

/// Counters the append path maintains, surfaced via tip_wal_stats().
struct WalStatsSnapshot {
  uint64_t records_appended = 0;
  uint64_t bytes_written = 0;
  uint64_t fsyncs = 0;
  uint64_t rotations = 0;
  /// Largest number of records covered by one fsync (the group-commit
  /// batch size actually achieved).
  uint64_t max_batch_records = 0;
};

/// A point in the log that ResetToMark can rewind to. Valid only while
/// no rotation happens between Mark and ResetToMark (transactions
/// refuse checkpoints, which are the only rotation source).
struct WalMark {
  uint64_t next_lsn = 0;
  uint64_t size = 0;
  uint64_t pending_records = 0;
};

/// What Wal::Open found on disk.
struct WalOpenReport {
  bool created = false;             // no log existed; a fresh one was written
  uint64_t records_scanned = 0;     // valid records found
  bool torn_tail = false;           // the file ended in a broken frame
  uint64_t torn_bytes_truncated = 0;
};

/// An append-only, CRC32-framed write-ahead log over a single file.
///
/// File layout (little-endian):
///   header: "TIPWAL01" | u64 start_lsn | u32 CRC-32 of the first 16 bytes
///   record: u32 payload length | u32 CRC-32 of payload | payload
///   payload: u64 lsn | u8 kind | body
///
/// LSNs are assigned by Append and are consecutive within a file,
/// starting at the header's start_lsn; rotation starts a fresh file at
/// a higher LSN. On open, the tail is scanned front to back and the
/// first frame that fails its length or CRC check marks the torn tail:
/// the file is truncated there (a kill -9 mid-append must lose exactly
/// the unacknowledged record, never resurrect garbage). A damaged
/// *header* is Corruption — unlike a torn tail it cannot be the result
/// of a crash mid-append, so it is never silently discarded.
///
/// Thread-safety: all methods are serialized on an internal mutex.
/// Group commit batches fsyncs across consecutive appends; Sync()
/// forces the pending batch down.
///
/// Fault points: "wal.create.*" (first creation), "wal.append",
/// "wal.fsync", "wal.rotate" and "wal.rotate.*" (the rotation's
/// atomic-write steps).
class Wal {
 public:
  static constexpr uint64_t kDefaultGroupRecords = 64;

  /// Opens the log at `path`, creating it (starting at `start_lsn`) if
  /// absent. Existing records are validated and returned through
  /// `existing` (optional); a torn tail is truncated and reported.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           uint64_t start_lsn,
                                           std::vector<WalRecord>* existing,
                                           WalOpenReport* report);

  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one record, assigns its LSN and applies `mode`'s sync
  /// policy before returning. On any failure the frame is rolled back
  /// off the file (the log never retains a record for a statement that
  /// was not applied), and the error is returned.
  Result<uint64_t> Append(WalRecordKind kind, std::string_view body,
                          WalMode mode);

  /// Fsyncs any records appended since the last fsync (the group-commit
  /// tail). No-op when nothing is pending. A *failed* fsync poisons the
  /// log (fail-stop): after it the kernel may have dropped the dirty
  /// pages and cleared the error, so retrying could report durability
  /// that never happened — further appends are refused and the database
  /// must be reopened to recover from what actually reached disk.
  Status Sync();

  /// Replaces the log with a fresh, empty one starting at `start_lsn`
  /// (checkpoint truncation). Atomic: a crash mid-rotate leaves the old
  /// log intact.
  Status Rotate(uint64_t start_lsn);

  /// Captures the current end of the log, to rewind to on ROLLBACK.
  WalMark Mark() const;

  /// Physically truncates the log back to `mark`, un-assigning every
  /// LSN appended since: the next Append reuses mark.next_lsn and the
  /// file is byte-for-byte what it was at Mark time. Only the owner of
  /// an open transaction may call this (appends between Mark and reset
  /// must all belong to the aborted bracket). No fsync is needed for
  /// correctness: if the truncation itself is lost to a crash, the
  /// discarded records sit in an unclosed bracket and recovery drops
  /// them anyway. A failed truncate poisons the log (the file tail is
  /// in an unknown state). Fault point: "wal.reset".
  Status ResetToMark(const WalMark& mark);

  /// The LSN the next Append will be assigned.
  uint64_t next_lsn() const;

  /// Appends not yet covered by an fsync.
  uint64_t pending_records() const;

  /// Group-commit batch size (records per fsync in kGroup mode).
  void set_group_records(uint64_t n);
  uint64_t group_records() const;

  WalStatsSnapshot stats() const;
  const std::string& path() const { return path_; }

 private:
  Wal(std::string path, int fd, uint64_t next_lsn, uint64_t size);

  Status SyncLocked();
  Status AppendLocked(WalRecordKind kind, std::string_view body,
                      WalMode mode, uint64_t* lsn);

  const std::string path_;
  mutable std::mutex mu_;
  int fd_ = -1;
  bool broken_ = false;  // an unrecoverable I/O error poisoned the log
  uint64_t next_lsn_ = 1;
  uint64_t size_ = 0;  // valid bytes in the file
  uint64_t pending_records_ = 0;
  uint64_t group_records_ = kDefaultGroupRecords;
  WalStatsSnapshot stats_;
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_STORAGE_WAL_H_
