#include "engine/storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>

#include "common/crc32.h"
#include "common/durable_fs.h"
#include "common/fault_injection.h"
#include "engine/storage/wire_format.h"

namespace tip::engine {

namespace {

constexpr char kWalMagic[] = "TIPWAL01";
constexpr size_t kMagicLen = 8;
constexpr size_t kHeaderLen = kMagicLen + 8 + 4;  // magic | start_lsn | crc
constexpr size_t kFrameHeaderLen = 4 + 4;         // length | crc
// A frame length past this is garbage, not data; treat it like any
// other broken frame, never as an allocation request.
constexpr uint64_t kMaxRecordBytes = 1ull << 30;

std::string BuildHeader(uint64_t start_lsn) {
  std::string header(kWalMagic, kMagicLen);
  wire::PutU64(start_lsn, &header);
  wire::PutU32(Crc32(header), &header);
  return header;
}

// Writes all of `bytes` to `fd`; false on any error or short write.
bool WriteAll(int fd, std::string_view bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

/// The frame at the front of `rest`, located by its header alone.
struct Frame {
  bool readable = false;  // in the file, CRC held, has an LSN and a kind
  size_t size = 0;        // header + declared payload
  uint64_t lsn = 0;
  uint8_t kind = 0;
  std::string_view body;
};

Frame ReadFrame(std::string_view rest) {
  Frame frame;
  if (rest.size() < kFrameHeaderLen) return frame;
  uint32_t len, crc;
  std::memcpy(&len, rest.data(), 4);
  std::memcpy(&crc, rest.data() + 4, 4);
  if (len > kMaxRecordBytes || len > rest.size() - kFrameHeaderLen) {
    return frame;
  }
  frame.size = kFrameHeaderLen + len;
  const std::string_view payload = rest.substr(kFrameHeaderLen, len);
  if (len < 8 + 1 || Crc32(payload) != crc) return frame;
  frame.readable = true;
  std::memcpy(&frame.lsn, payload.data(), 8);
  frame.kind = static_cast<uint8_t>(payload[8]);
  frame.body = payload.substr(8 + 1);
  return frame;
}

enum class FrameClass { kRecord, kTorn, kDamaged };

/// Whether a readable frame carrying `lsn` starts anywhere in `rest`
/// past its first byte. Found by the LSN at payload offset 0, then
/// confirmed by that frame's CRC, so a damaged length field in front of
/// it cannot hide it.
bool FollowedByFrameFor(std::string_view rest, uint64_t lsn) {
  char bytes[8];
  std::memcpy(bytes, &lsn, 8);
  const std::string_view key(bytes, 8);
  for (size_t at = rest.find(key, 1 + kFrameHeaderLen);
       at != std::string_view::npos; at = rest.find(key, at + 1)) {
    const Frame frame = ReadFrame(rest.substr(at - kFrameHeaderLen));
    if (frame.readable && frame.lsn == lsn) return true;
  }
  return false;
}

/// The one frame classifier (the rule is ScanWal's): what the frame at
/// the front of `rest`, which should carry `lsn`, is.
FrameClass ClassifyFrame(std::string_view rest, uint64_t lsn, Frame* frame,
                         std::string* cause) {
  *frame = ReadFrame(rest);
  if (!frame->readable) {
    // A process kill can only tear the last frame.
    if (!FollowedByFrameFor(rest, lsn + 1)) return FrameClass::kTorn;
    *cause = "frame for LSN " + std::to_string(lsn) +
             " fails its checks, yet a whole frame with LSN " +
             std::to_string(lsn + 1) +
             " follows it (bit rot, not a torn append)";
    return FrameClass::kDamaged;
  }
  if (frame->lsn != lsn) {
    *cause = "record out of sequence: got LSN " + std::to_string(frame->lsn) +
             ", want " + std::to_string(lsn);
    return FrameClass::kDamaged;
  }
  if (frame->kind < static_cast<uint8_t>(WalRecordKind::kInsert) ||
      frame->kind > static_cast<uint8_t>(WalRecordKind::kTxnAbort)) {
    *cause = "unknown record kind " + std::to_string(frame->kind);
    return FrameClass::kDamaged;
  }
  return FrameClass::kRecord;
}

}  // namespace

Result<WalMode> ParseWalMode(std::string_view word) {
  if (word == "off") return WalMode::kOff;
  if (word == "async") return WalMode::kAsync;
  if (word == "group") return WalMode::kGroup;
  if (word == "sync") return WalMode::kSync;
  return Status::InvalidArgument("wal_mode must be off, async, group or "
                                 "sync, got '" + std::string(word) + "'");
}

std::string_view WalModeName(WalMode mode) {
  switch (mode) {
    case WalMode::kOff: return "off";
    case WalMode::kAsync: return "async";
    case WalMode::kGroup: return "group";
    case WalMode::kSync: return "sync";
  }
  return "?";
}

Result<WalScan> ScanWal(const std::string& path) {
  TIP_ASSIGN_OR_RETURN(std::string bytes, fs::ReadFile(path));
  if (bytes.size() < kHeaderLen ||
      std::memcmp(bytes.data(), kWalMagic, kMagicLen) != 0) {
    return Status::Corruption("'" + path + "' is not a TIP WAL");
  }
  WalScan scan;
  scan.bytes = std::make_unique<const std::string>(std::move(bytes));
  const std::string_view data(*scan.bytes);
  uint32_t header_crc;
  std::memcpy(&header_crc, data.data() + kHeaderLen - 4, 4);
  if (Crc32(data.substr(0, kHeaderLen - 4)) != header_crc) {
    return Status::Corruption("WAL header checksum mismatch in '" + path +
                              "'");
  }
  std::memcpy(&scan.start_lsn, data.data() + kMagicLen, 8);
  scan.end = kHeaderLen;
  uint64_t lsn = scan.start_lsn;
  while (scan.end < data.size()) {
    Frame frame;
    const FrameClass kind =
        ClassifyFrame(data.substr(scan.end), lsn, &frame, &scan.damage);
    if (kind == FrameClass::kTorn) scan.torn_tail = true;
    if (kind != FrameClass::kRecord) break;
    scan.records.push_back(
        {lsn++, static_cast<WalRecordKind>(frame.kind), frame.body, scan.end});
    scan.end += frame.size;
  }
  return scan;
}

WalReplay WalkBrackets(const WalScan& scan, uint64_t from_lsn) {
  WalReplay replay;
  const std::vector<WalRecord>& records = scan.records;
  size_t kept = 0;             // records [0, kept) form whole units
  std::optional<size_t> open;  // the unclosed bracket's TXN_BEGIN
  size_t i = 0;
  for (; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    const bool begin = record.kind == WalRecordKind::kTxnBegin;
    const bool commit = record.kind == WalRecordKind::kTxnCommit;
    const bool close = commit || record.kind == WalRecordKind::kTxnAbort;
    if (record.lsn >= from_lsn && (begin || close) &&
        open.has_value() == begin) {
      replay.damage = begin ? "TXN_BEGIN inside an open transaction"
                            : std::string(commit ? "TXN_COMMIT" : "TXN_ABORT") +
                                  " without TXN_BEGIN";
      replay.damage_lsn = record.lsn;
      replay.damage_offset = record.offset;
      break;
    }
    if (record.lsn >= from_lsn) {
      if (begin) {
        open = i;
      } else if (close) {
        for (size_t j = *open + 1; commit && j < i; ++j) {
          replay.apply.push_back(&records[j]);
        }
        replay.txns_committed += commit ? 1 : 0;
        replay.records_discarded += commit ? 0 : i - *open - 1;
        open.reset();
      } else if (!open.has_value()) {
        replay.apply.push_back(&record);
      }
    }
    if (!open.has_value()) kept = i + 1;
  }
  if (replay.damage.empty() && !scan.damage.empty()) {
    replay.damage = scan.damage;
    replay.damage_lsn = scan.start_lsn + records.size();
    replay.damage_offset = scan.end;
  }
  if (open.has_value()) {
    // The records after an unclosed TXN_BEGIN never committed.
    replay.records_discarded += i - *open - 1;
    replay.open_tail = replay.damage.empty();
  }
  replay.end = kept < records.size() ? records[kept].offset : scan.end;
  replay.next_lsn = scan.start_lsn + kept;
  return replay;
}

Wal::Wal(std::string path, int fd, uint64_t next_lsn, uint64_t size)
    : path_(std::move(path)), fd_(fd), next_lsn_(next_lsn), size_(size) {}

Wal::~Wal() {
  if (fd_ >= 0) {
    // Best-effort: push the group-commit tail down before closing.
    if (pending_records_ > 0) ::fsync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<Wal>> Wal::Create(const std::string& path,
                                         uint64_t start_lsn) {
  // Durably: the file and its parent directory entry.
  TIP_RETURN_IF_ERROR(
      fs::AtomicWriteFile(path, BuildHeader(start_lsn), "wal.create"));
  return OpenAt(path, kHeaderLen, start_lsn);
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       const Result<WalScan>& scan,
                                       const WalReplay& replay,
                                       uint64_t start_lsn) {
  if (!scan.ok() && scan.status().code() != StatusCode::kNotFound) {
    return scan.status();
  }
  if (!scan.ok() || replay.next_lsn < start_lsn) {
    return Create(path, start_lsn);
  }
  return OpenAt(path, replay.end, replay.next_lsn);
}

Result<std::unique_ptr<Wal>> Wal::OpenAt(const std::string& path,
                                         uint64_t end, uint64_t next_lsn) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  struct stat st;
  if (fd < 0 || ::fstat(fd, &st) != 0 ||
      (static_cast<uint64_t>(st.st_size) != end &&
       (::ftruncate(fd, static_cast<off_t>(end)) != 0 || ::fsync(fd) != 0)) ||
      ::lseek(fd, static_cast<off_t>(end), SEEK_SET) < 0) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    return Status::Internal("cannot open WAL '" + path +
                            "' for appending at byte offset " +
                            std::to_string(end) + ": " + std::strerror(err));
  }
  return std::unique_ptr<Wal>(new Wal(path, fd, next_lsn, end));
}

Status Wal::AppendLocked(WalRecordKind kind, std::string_view body,
                         WalMode mode, uint64_t* lsn) {
  if (broken_) {
    return Status::Internal("WAL '" + path_ +
                            "' is poisoned by an earlier I/O error");
  }
  TIP_RETURN_IF_ERROR(fault::MaybeFail("wal.append"));

  // Build the frame in one buffer: the payload is framed in place and
  // its CRC patched into the header afterwards, so the body is copied
  // once instead of twice.
  const size_t payload_len = 8 + 1 + body.size();
  std::string frame;
  frame.reserve(kFrameHeaderLen + payload_len);
  wire::PutU32(static_cast<uint32_t>(payload_len), &frame);
  wire::PutU32(0, &frame);  // CRC placeholder
  wire::PutU64(next_lsn_, &frame);
  wire::PutU8(static_cast<uint8_t>(kind), &frame);
  frame.append(body);
  const uint32_t crc =
      Crc32(std::string_view(frame).substr(kFrameHeaderLen));
  std::memcpy(frame.data() + 4, &crc, 4);

  const uint64_t offset_before = size_;
  // Rolls the frame back off the file so the durable log never holds a
  // record whose statement did not complete (replay would otherwise
  // apply it and diverge from the acknowledged history).
  auto rollback = [&] {
    if (::ftruncate(fd_, static_cast<off_t>(offset_before)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(offset_before), SEEK_SET) < 0) {
      broken_ = true;
    }
    size_ = offset_before;
  };

  if (!WriteAll(fd_, frame)) {
    rollback();
    return Status::Internal("short write to WAL '" + path_ + "'");
  }
  size_ += frame.size();
  ++pending_records_;

  Status synced = Status::OK();
  if (mode == WalMode::kSync ||
      (mode == WalMode::kGroup && pending_records_ >= group_records_)) {
    synced = SyncLocked();
  }
  if (!synced.ok()) {
    // broken_ means the fdatasync itself failed: the durable extent of
    // the file is unknowable (earlier batch records may already be
    // gone from the page cache), so truncating our frame back off
    // would be theater. The poisoned log refuses everything anyway;
    // reopening re-derives the true tail from disk. An injected fault
    // fires *before* the real fsync, so there rollback is still exact.
    if (!broken_) {
      rollback();
      --pending_records_;
    }
    return synced;
  }
  *lsn = next_lsn_++;
  stats_.records_appended += 1;
  stats_.bytes_written += frame.size();
  return Status::OK();
}

Result<uint64_t> Wal::Append(WalRecordKind kind, std::string_view body,
                             WalMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t lsn = 0;
  TIP_RETURN_IF_ERROR(AppendLocked(kind, body, mode, &lsn));
  return lsn;
}

Status Wal::SyncLocked() {
  if (pending_records_ == 0) return Status::OK();
  TIP_RETURN_IF_ERROR(fault::MaybeFail("wal.fsync"));
  // fdatasync: the commit needs the appended bytes and the file size,
  // both of which it flushes; the timestamp metadata fsync would also
  // journal is not needed to replay the log.
  if (::fdatasync(fd_) != 0) {
    // Fail-stop, the fsyncgate lesson: the kernel may have dropped the
    // dirty pages and cleared the error, so a retry would "succeed"
    // without the earlier records of this batch ever reaching disk.
    // Poison the log; the operator must reopen and recover from what is
    // actually durable.
    broken_ = true;
    return Status::Internal("fsync of WAL '" + path_ +
                            "' failed: " + std::strerror(errno));
  }
  stats_.fsyncs += 1;
  if (pending_records_ > stats_.max_batch_records) {
    stats_.max_batch_records = pending_records_;
  }
  pending_records_ = 0;
  return Status::OK();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::Rotate(uint64_t start_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::Internal("WAL '" + path_ +
                            "' is poisoned by an earlier I/O error");
  }
  TIP_RETURN_IF_ERROR(fault::MaybeFail("wal.rotate"));
  // The fresh (empty) log replaces the old one atomically; a crash
  // anywhere in here leaves the old log intact and replayable against
  // the old checkpoint.
  Status written =
      fs::AtomicWriteFile(path_, BuildHeader(start_lsn), "wal.rotate");
  if (!written.ok()) {
    // We cannot tell whether the rename replaced the file before the
    // failure hit: an append through the old descriptor might land in
    // an unlinked inode and silently vanish. Refuse further writes —
    // reopening the database recovers from the published checkpoint.
    broken_ = true;
    return written;
  }
  const int fd = ::open(path_.c_str(), O_WRONLY);
  if (fd < 0) {
    broken_ = true;  // old fd points at the unlinked previous file
    return Status::Internal("cannot reopen rotated WAL '" + path_ + "'");
  }
  if (::lseek(fd, static_cast<off_t>(kHeaderLen), SEEK_SET) < 0) {
    ::close(fd);
    broken_ = true;
    return Status::Internal("cannot seek rotated WAL '" + path_ + "'");
  }
  ::close(fd_);
  fd_ = fd;
  size_ = kHeaderLen;
  next_lsn_ = start_lsn;
  pending_records_ = 0;
  stats_.rotations += 1;
  return Status::OK();
}

WalMark Wal::Mark() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalMark mark;
  mark.next_lsn = next_lsn_;
  mark.size = size_;
  mark.pending_records = pending_records_;
  return mark;
}

Status Wal::ResetToMark(const WalMark& mark) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::Internal("WAL '" + path_ +
                            "' is poisoned by an earlier I/O error");
  }
  // A mark "ahead" of the current tail means it predates a rotation;
  // rewinding through a rotation would corrupt the fresh log.
  if (mark.size > size_ || mark.next_lsn > next_lsn_) {
    return Status::Internal("WAL mark does not address this log epoch");
  }
  if (mark.size == size_) return Status::OK();  // nothing was appended
  const Status injected = fault::MaybeFail("wal.reset");
  if (!injected.ok() ||
      ::ftruncate(fd_, static_cast<off_t>(mark.size)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(mark.size), SEEK_SET) < 0) {
    // The tail may or may not still hold the discarded records; refuse
    // further appends (they would land at an unknown offset). Reopening
    // re-derives the durable tail, and recovery discards the unclosed
    // bracket these records sit in.
    broken_ = true;
    return injected.ok() ? Status::Internal("cannot rewind WAL '" + path_ +
                                            "': " + std::strerror(errno))
                         : injected;
  }
  // The discarded records are no longer in the log, so the traffic
  // counters (which describe the log's contents) roll back with them;
  // fsyncs stay, they physically happened.
  stats_.records_appended -= next_lsn_ - mark.next_lsn;
  stats_.bytes_written -= size_ - mark.size;
  size_ = mark.size;
  next_lsn_ = mark.next_lsn;
  pending_records_ = mark.pending_records;
  return Status::OK();
}

uint64_t Wal::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t Wal::pending_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_records_;
}

void Wal::set_group_records(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  group_records_ = n == 0 ? 1 : n;
}

uint64_t Wal::group_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_records_;
}

WalStatsSnapshot Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tip::engine
