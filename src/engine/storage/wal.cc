#include "engine/storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

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
// other broken frame (torn tail), never as an allocation request.
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

Wal::Wal(std::string path, int fd, uint64_t next_lsn, uint64_t size)
    : path_(std::move(path)), fd_(fd), next_lsn_(next_lsn), size_(size) {}

Wal::~Wal() {
  if (fd_ >= 0) {
    // Best-effort: push the group-commit tail down before closing.
    if (pending_records_ > 0) ::fsync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       uint64_t start_lsn,
                                       std::vector<WalRecord>* existing,
                                       WalOpenReport* report) {
  WalOpenReport local;
  if (report == nullptr) report = &local;
  *report = WalOpenReport{};

  Result<std::string> bytes = fs::ReadFile(path);
  uint64_t next_lsn = start_lsn;
  uint64_t valid_end = kHeaderLen;
  if (!bytes.ok()) {
    // Only a genuinely absent file means "no log yet". Any other
    // failure (EACCES, EMFILE, a mid-read I/O error) must propagate:
    // writing a fresh header here would overwrite a log we merely
    // failed to read, silently discarding acknowledged records.
    if (bytes.status().code() != StatusCode::kNotFound) {
      return bytes.status();
    }
    // No log yet: create one durably (file + parent directory entry).
    report->created = true;
    TIP_RETURN_IF_ERROR(
        fs::AtomicWriteFile(path, BuildHeader(start_lsn), "wal.create"));
  } else {
    // Validate the header strictly: unlike the tail, it is written once
    // at creation/rotation and fsynced before use, so damage here is
    // bit rot, not a crash artifact.
    if (bytes->size() < kHeaderLen ||
        std::memcmp(bytes->data(), kWalMagic, kMagicLen) != 0) {
      return Status::Corruption("'" + path + "' is not a TIP WAL");
    }
    wire::Reader header(std::string_view(*bytes).substr(0, kHeaderLen));
    (void)header.Bytes(kMagicLen);
    TIP_ASSIGN_OR_RETURN(uint64_t file_start_lsn, header.U64());
    TIP_ASSIGN_OR_RETURN(uint32_t header_crc, header.U32());
    if (Crc32(std::string_view(*bytes).substr(0, kHeaderLen - 4)) !=
        header_crc) {
      return Status::Corruption("WAL header checksum mismatch in '" + path +
                                "'");
    }
    next_lsn = file_start_lsn;

    // Scan frames front to back. The first frame that fails any check
    // marks the torn tail; everything before it is trusted.
    std::string_view rest = std::string_view(*bytes).substr(kHeaderLen);
    while (!rest.empty()) {
      bool good = false;
      if (rest.size() >= kFrameHeaderLen) {
        uint32_t len, crc;
        std::memcpy(&len, rest.data(), 4);
        std::memcpy(&crc, rest.data() + 4, 4);
        if (len <= kMaxRecordBytes &&
            len <= rest.size() - kFrameHeaderLen) {
          std::string_view payload = rest.substr(kFrameHeaderLen, len);
          if (Crc32(payload) == crc) {
            wire::Reader r(payload);
            Result<uint64_t> lsn = r.U64();
            Result<uint8_t> kind = lsn.ok() ? r.U8() : lsn.status();
            if (kind.ok()) {
              if (*lsn != next_lsn) {
                // A CRC-valid record with the wrong sequence number is
                // not a crash artifact; refuse to guess.
                return Status::Corruption(
                    "WAL record out of sequence in '" + path + "' at byte "
                    "offset " + std::to_string(valid_end) + ": got LSN " +
                    std::to_string(*lsn) + ", want " +
                    std::to_string(next_lsn));
              }
              if (existing != nullptr) {
                WalRecord record;
                record.lsn = *lsn;
                record.kind = static_cast<WalRecordKind>(*kind);
                record.body = std::string(payload.substr(r.pos()));
                existing->push_back(std::move(record));
              }
              ++next_lsn;
              ++report->records_scanned;
              valid_end += kFrameHeaderLen + len;
              rest = rest.substr(kFrameHeaderLen + len);
              good = true;
            }
          }
        }
      }
      if (!good) {
        report->torn_tail = true;
        report->torn_bytes_truncated = bytes->size() - valid_end;
        break;
      }
    }
    if (!report->torn_tail) valid_end = bytes->size();
  }

  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::Internal("cannot open WAL '" + path +
                            "' for appending: " + std::strerror(errno));
  }
  if (report->torn_tail) {
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0 ||
        ::fsync(fd) != 0) {
      ::close(fd);
      return Status::Internal("cannot truncate torn WAL tail in '" + path +
                              "'");
    }
  }
  if (::lseek(fd, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    ::close(fd);
    return Status::Internal("cannot seek WAL '" + path + "'");
  }
  return std::unique_ptr<Wal>(new Wal(path, fd, next_lsn, valid_end));
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
