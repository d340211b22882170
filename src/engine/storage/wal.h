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
/// the recovery layer (the WAL itself is payload-agnostic). It views
/// the bytes of the WalScan that read it: valid while that scan lives.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordKind kind = WalRecordKind::kDdl;
  std::string_view body;
  uint64_t offset = 0;  // byte offset of the record's frame in the file
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

/// What ScanWal read from a log file. The scan changes nothing on disk.
struct WalScan {
  std::unique_ptr<const std::string> bytes;  // the file; bodies view it
  uint64_t start_lsn = 0;          // from the header
  std::vector<WalRecord> records;  // the whole frames before the stop
  uint64_t end = 0;        // byte offset just past the last record
  bool torn_tail = false;  // the bytes past `end` are a torn last frame
  std::string damage;      // why the bytes past `end` are damage, if so
};

/// The one reader of the log format: validates the header, then reads
/// frames until the first that is not a whole, in-sequence record. A
/// frame that runs past the end of the file or fails its CRC is a torn
/// tail when no whole frame carrying the next LSN lies anywhere behind
/// it (a kill can only tear the last frame). Anything else is damage:
/// a failing frame with such a successor (found by its LSN, so a
/// damaged length field cannot hide it), or a whole frame with the
/// wrong LSN or an unknown kind.
/// A damaged header is Corruption (it is fsynced once, before use);
/// NotFound when `path` is absent.
Result<WalScan> ScanWal(const std::string& path);

/// How recovery reads a scanned log: the one bracket walk, and with it
/// the one rule for where the log ends. Records below `from_lsn` are
/// covered by the checkpoint and skipped. Replay applies `apply`, and
/// Wal::Open resumes the log after the kept records.
struct WalReplay {
  /// Records outside any bracket and those of committed brackets.
  std::vector<const WalRecord*> apply;
  uint64_t txns_committed = 0;
  uint64_t records_discarded = 0;  // in aborted and unclosed brackets
  bool open_tail = false;  // the log ends in an unclosed bracket (cut)
  uint64_t end = 0;        // byte offset where the kept records end
  uint64_t next_lsn = 0;   // the LSN the first append after `end` gets
  /// Where and why replay stopped at damage: the scan's, or a bracket
  /// no writer produces. `damage` is empty when the log is whole.
  uint64_t damage_lsn = 0;
  uint64_t damage_offset = 0;
  std::string damage;
};
WalReplay WalkBrackets(const WalScan& scan, uint64_t from_lsn);

/// An append-only, CRC32-framed write-ahead log over a single file.
///
/// File layout (little-endian):
///   header: TIPWAL01 | u64 start_lsn | u32 CRC-32 of the first 16 bytes
///   record: u32 payload length | u32 CRC-32 of payload | payload
///   payload: u64 lsn | u8 kind | body
///
/// LSNs are assigned by Append and are consecutive within a file,
/// starting at the header's start_lsn; rotation starts a fresh file at
/// a higher LSN. ScanWal and WalkBrackets read an existing log; Open
/// then appends where recovery stopped, so a kill -9 mid-append loses
/// exactly the unacknowledged record and never resurrects garbage.
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

  /// Creates a fresh, empty log at `path` starting at `start_lsn`.
  static Result<std::unique_ptr<Wal>> Create(const std::string& path,
                                             uint64_t start_lsn);

  /// The one rule for where appends resume after recovery read `path`
  /// (`scan` from ScanWal, `replay` from WalkBrackets at `start_lsn`,
  /// the checkpoint's LSN). No log (NotFound) gets a fresh one at
  /// `start_lsn`; any other scan error is returned, never overwritten.
  /// Kept records ending below `start_lsn` (an unrotated checkpoint
  /// over a log cut short) also give way to a fresh log there: the
  /// snapshot covers them, and recovery skips LSNs below it. Otherwise
  /// every byte past `replay.end` is cut, fsynced before any append.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           const Result<WalScan>& scan,
                                           const WalReplay& replay,
                                           uint64_t start_lsn);

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

  /// Opens the log at `path` for appending at byte `end`, cutting (and
  /// fsyncing the cut of) every byte past it.
  static Result<std::unique_ptr<Wal>> OpenAt(const std::string& path,
                                             uint64_t end, uint64_t next_lsn);

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
