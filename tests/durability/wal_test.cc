// Unit tests for the write-ahead log's framing and crash behaviour:
// append/reopen round trips through ScanWal and Wal::Open, torn-tail
// truncation at arbitrary cut points, strict header validation,
// group-commit fsync batching, rotation, and the append-failure
// rollback that keeps the durable log free of records for failed
// statements.

#include "engine/storage/wal.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/durable_fs.h"
#include "common/fault_injection.h"

namespace tip::engine {
namespace {

/// What OpenLog found on disk, read off the scan.
struct OpenReport {
  bool created = false;          // no log existed; a fresh one was written
  uint64_t records_scanned = 0;  // valid records found
  bool torn_tail = false;        // the file ended in a broken frame
  uint64_t torn_bytes_truncated = 0;
};

class WalTest : public ::testing::Test {
 protected:
  /// Reopens the log at `path` as strict recovery does: ScanWal and
  /// WalkBrackets read it, damage is refused, and Wal::Open resumes it.
  /// `scan_out` receives the scan, whose bytes the records' bodies view.
  static Result<std::unique_ptr<Wal>> OpenLog(const std::string& path,
                                              WalScan* scan_out,
                                              OpenReport* report) {
    OpenReport local;
    if (report == nullptr) report = &local;
    *report = OpenReport{};
    Result<WalScan> scan = ScanWal(path);
    WalReplay replay;
    if (scan.ok()) {
      replay = WalkBrackets(*scan, 1);
      if (!replay.damage.empty()) return Status::Corruption(replay.damage);
      report->records_scanned = scan->records.size();
      report->torn_tail = scan->torn_tail;
      report->torn_bytes_truncated = scan->bytes->size() - scan->end;
    }
    Result<std::unique_ptr<Wal>> wal = Wal::Open(path, scan, replay, 1);
    report->created = wal.ok() && !scan.ok();
    if (scan_out != nullptr && scan.ok()) *scan_out = std::move(*scan);
    return wal;
  }

  void SetUp() override {
    fault::ClearAll();
    // Unique per test case: ctest runs the cases as parallel processes.
    path_ = ::testing::TempDir() + "/tip_wal_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }

  void TearDown() override {
    fault::ClearAll();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  static std::string ReadAll(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return {};
    std::string bytes;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
    return bytes;
  }

  static void WriteAll(const std::string& path, const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  std::string path_;
};

TEST_F(WalTest, CreateAppendReopenRoundTrip) {
  OpenReport report;
  Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, &report);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE(report.created);
  EXPECT_EQ(report.records_scanned, 0u);

  Result<uint64_t> a =
      (*wal)->Append(WalRecordKind::kDdl, "CREATE TABLE t (x INT)",
                     WalMode::kAsync);
  Result<uint64_t> b =
      (*wal)->Append(WalRecordKind::kInsert, std::string("bin\0ary", 7),
                     WalMode::kAsync);
  Result<uint64_t> c =
      (*wal)->Append(WalRecordKind::kMutate, "", WalMode::kAsync);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 2u);
  EXPECT_EQ(*c, 3u);
  EXPECT_EQ((*wal)->next_lsn(), 4u);
  wal->reset();  // destructor syncs and closes

  WalScan scan;
  Result<std::unique_ptr<Wal>> reopened = OpenLog(path_, &scan, &report);
  const std::vector<WalRecord>& records = scan.records;
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(report.created);
  EXPECT_FALSE(report.torn_tail);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].kind, WalRecordKind::kDdl);
  EXPECT_EQ(records[0].body, "CREATE TABLE t (x INT)");
  EXPECT_EQ(records[1].kind, WalRecordKind::kInsert);
  EXPECT_EQ(records[1].body, std::string("bin\0ary", 7));
  EXPECT_EQ(records[2].body, "");
  EXPECT_EQ((*reopened)->next_lsn(), 4u);
}

TEST_F(WalTest, TornTailTruncatedAtEveryCutPoint) {
  {
    OpenReport report;
    Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, &report);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*wal)
                      ->Append(WalRecordKind::kDdl,
                               "record-" + std::to_string(i), WalMode::kSync)
                      .ok());
    }
  }
  const std::string full = ReadAll(path_);
  ASSERT_FALSE(full.empty());
  const size_t header_len = 20;
  const size_t frame_len = 8 + 8 + 1 + 8;  // frame hdr + lsn + kind + body

  // Cut the file everywhere past the header: recovery must keep exactly
  // the records whose frames survived whole and truncate the rest.
  for (size_t cut = header_len; cut < full.size(); ++cut) {
    WriteAll(path_, full.substr(0, cut));
    WalScan scan;
    OpenReport report;
    Result<std::unique_ptr<Wal>> wal = OpenLog(path_, &scan, &report);
    const std::vector<WalRecord>& records = scan.records;
    ASSERT_TRUE(wal.ok()) << "cut at " << cut << ": "
                          << wal.status().ToString();
    const size_t whole_frames = (cut - header_len) / frame_len;
    EXPECT_EQ(records.size(), whole_frames) << "cut at " << cut;
    EXPECT_EQ(report.torn_tail, (cut - header_len) % frame_len != 0)
        << "cut at " << cut;
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].body, "record-" + std::to_string(i));
    }
    // The truncation is physical: a second open sees a clean file.
    WalScan rescan;
    OpenReport report2;
    wal->reset();
    Result<std::unique_ptr<Wal>> second = OpenLog(path_, &rescan, &report2);
    const std::vector<WalRecord>& again = rescan.records;
    ASSERT_TRUE(second.ok());
    EXPECT_FALSE(report2.torn_tail) << "cut at " << cut;
    EXPECT_EQ(again.size(), whole_frames);
  }
}

TEST_F(WalTest, BitFlipInTailDropsFromThatRecordOn) {
  {
    Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, nullptr);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*wal)
                      ->Append(WalRecordKind::kDdl,
                               "record-" + std::to_string(i), WalMode::kSync)
                      .ok());
    }
  }
  std::string bytes = ReadAll(path_);
  const size_t frame_len = 8 + 8 + 1 + 8;
  // Flip one byte in the LAST frame's payload: the first two records
  // survive, the damaged one is treated as the torn tail.
  bytes[bytes.size() - frame_len + 10] ^= 0x20;
  WriteAll(path_, bytes);
  WalScan scan;
  OpenReport report;
  Result<std::unique_ptr<Wal>> wal = OpenLog(path_, &scan, &report);
  const std::vector<WalRecord>& records = scan.records;
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.torn_bytes_truncated, frame_len);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].body, "record-1");
}

TEST_F(WalTest, DamagedHeaderIsCorruptionNotTornTail) {
  {
    Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, nullptr);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        (*wal)->Append(WalRecordKind::kDdl, "x", WalMode::kSync).ok());
  }
  const std::string good = ReadAll(path_);
  // Bad magic, bad start-lsn and bad header CRC each refuse to open.
  for (size_t pos : {size_t{0}, size_t{9}, size_t{17}}) {
    std::string bytes = good;
    bytes[pos] ^= 0x01;
    WriteAll(path_, bytes);
    Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, nullptr);
    ASSERT_FALSE(wal.ok()) << "flip at " << pos;
    EXPECT_EQ(wal.status().code(), StatusCode::kCorruption)
        << wal.status().ToString();
  }
  // A short file cannot be a crash artifact either (the header is
  // written and fsynced before first use).
  WriteAll(path_, good.substr(0, 10));
  EXPECT_EQ(OpenLog(path_, nullptr, nullptr).status().code(),
            StatusCode::kCorruption);
}

TEST_F(WalTest, OutOfSequenceRecordIsCorruption) {
  {
    Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, nullptr);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        (*wal)->Append(WalRecordKind::kDdl, "aaaaaaaa", WalMode::kSync).ok());
    ASSERT_TRUE(
        (*wal)->Append(WalRecordKind::kDdl, "bbbbbbbb", WalMode::kSync).ok());
  }
  std::string bytes = ReadAll(path_);
  const size_t header_len = 20;
  const size_t frame_len = 8 + 8 + 1 + 8;
  // Swap the two (equal-sized, individually CRC-valid) frames: the file
  // now starts with LSN 2, which is a sequencing violation, not a torn
  // tail — recovery must refuse rather than guess.
  std::string swapped = bytes.substr(0, header_len) +
                        bytes.substr(header_len + frame_len, frame_len) +
                        bytes.substr(header_len, frame_len);
  WriteAll(path_, swapped);
  Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, nullptr);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kCorruption);
  EXPECT_NE(wal.status().message().find("out of sequence"),
            std::string::npos);
}

TEST_F(WalTest, GroupCommitBatchesFsyncs) {
  Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, nullptr);
  ASSERT_TRUE(wal.ok());
  (*wal)->set_group_records(4);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        (*wal)->Append(WalRecordKind::kDdl, "r", WalMode::kGroup).ok());
  }
  WalStatsSnapshot stats = (*wal)->stats();
  EXPECT_EQ(stats.records_appended, 8u);
  EXPECT_EQ(stats.fsyncs, 2u);
  EXPECT_EQ(stats.max_batch_records, 4u);
  EXPECT_EQ((*wal)->pending_records(), 0u);

  // A partial batch stays pending until Sync() pushes it down.
  ASSERT_TRUE((*wal)->Append(WalRecordKind::kDdl, "r", WalMode::kGroup).ok());
  EXPECT_EQ((*wal)->pending_records(), 1u);
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ((*wal)->stats().fsyncs, 3u);
  EXPECT_EQ((*wal)->pending_records(), 0u);

  // Sync mode fsyncs every append; async mode never does.
  ASSERT_TRUE((*wal)->Append(WalRecordKind::kDdl, "r", WalMode::kSync).ok());
  EXPECT_EQ((*wal)->stats().fsyncs, 4u);
  ASSERT_TRUE((*wal)->Append(WalRecordKind::kDdl, "r", WalMode::kAsync).ok());
  EXPECT_EQ((*wal)->stats().fsyncs, 4u);
  EXPECT_EQ((*wal)->pending_records(), 1u);
}

TEST_F(WalTest, RotateStartsAFreshLog) {
  Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, nullptr);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        (*wal)->Append(WalRecordKind::kDdl, "old", WalMode::kAsync).ok());
  }
  ASSERT_TRUE((*wal)->Rotate(6).ok());
  EXPECT_EQ((*wal)->next_lsn(), 6u);
  EXPECT_EQ((*wal)->stats().rotations, 1u);
  Result<uint64_t> lsn =
      (*wal)->Append(WalRecordKind::kDdl, "new", WalMode::kSync);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 6u);
  wal->reset();

  WalScan scan;
  Result<std::unique_ptr<Wal>> reopened = OpenLog(path_, &scan, nullptr);
  const std::vector<WalRecord>& records = scan.records;
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 6u);
  EXPECT_EQ(records[0].body, "new");
}

TEST_F(WalTest, AppendFaultRollsTheFrameBackOffTheFile) {
  Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, nullptr);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(
      (*wal)->Append(WalRecordKind::kDdl, "good", WalMode::kSync).ok());
  const size_t size_before = ReadAll(path_).size();

  // Fail the append itself, then fail the fsync after the write: in
  // both cases the file must not grow and the LSN must not advance —
  // the durable log only ever holds records for applied statements.
  for (const char* point : {"wal.append", "wal.fsync"}) {
    fault::InjectAt(point, 0);
    Result<uint64_t> lsn =
        (*wal)->Append(WalRecordKind::kDdl, "doomed", WalMode::kSync);
    ASSERT_FALSE(lsn.ok()) << point;
    EXPECT_TRUE(fault::IsInjected(lsn.status())) << lsn.status().ToString();
    EXPECT_EQ(ReadAll(path_).size(), size_before) << point;
    EXPECT_EQ((*wal)->next_lsn(), 2u) << point;
    fault::ClearAll();
  }

  // The log is not poisoned: the next append reuses the rolled-back
  // LSN and a reopen sees exactly the two applied records.
  Result<uint64_t> lsn =
      (*wal)->Append(WalRecordKind::kDdl, "good2", WalMode::kSync);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
  wal->reset();
  WalScan scan;
  Result<std::unique_ptr<Wal>> reopened = OpenLog(path_, &scan, nullptr);
  const std::vector<WalRecord>& records = scan.records;
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].body, "good");
  EXPECT_EQ(records[1].body, "good2");
}

TEST_F(WalTest, ReadFileDistinguishesAbsentFromUnreadable) {
  // Absent file: NotFound, the one case recovery may treat as "fresh
  // state".
  EXPECT_EQ(fs::ReadFile(path_).status().code(), StatusCode::kNotFound);
  // Openable but unreadable (a directory reads as EISDIR): anything
  // but NotFound — mapping this to NotFound is what let recovery
  // overwrite state it merely failed to read.
  ASSERT_EQ(::mkdir(path_.c_str(), 0755), 0);
  Result<std::string> bytes = fs::ReadFile(path_);
  EXPECT_FALSE(bytes.ok());
  EXPECT_NE(bytes.status().code(), StatusCode::kNotFound);
  ::rmdir(path_.c_str());
}

TEST_F(WalTest, OpenPropagatesUnreadableLogInsteadOfCreating) {
  // When the log exists but cannot be read, Open must fail — never
  // "create" a fresh empty header over it, which would silently
  // discard every acknowledged record.
  ASSERT_EQ(::mkdir(path_.c_str(), 0755), 0);
  OpenReport report;
  // A rename cannot replace a directory, so only the hit counter of
  // the creation's first step shows whether Open tried (hits are
  // counted only while a point is armed).
  fault::InjectAt("wal.create.open", 0);
  const uint64_t creates = fault::HitCount("wal.create.open");
  Result<std::unique_ptr<Wal>> wal = OpenLog(path_, nullptr, &report);
  EXPECT_FALSE(wal.ok());
  EXPECT_NE(wal.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(report.created);
  EXPECT_EQ(fault::HitCount("wal.create.open"), creates);
  struct stat st;
  ASSERT_EQ(::stat(path_.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));  // untouched
  ::rmdir(path_.c_str());
}

TEST_F(WalTest, ParseWalModeRoundTrip) {
  for (WalMode mode : {WalMode::kOff, WalMode::kAsync, WalMode::kGroup,
                       WalMode::kSync}) {
    Result<WalMode> parsed = ParseWalMode(WalModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(ParseWalMode("paranoid").ok());
  EXPECT_FALSE(ParseWalMode("").ok());
}

}  // namespace
}  // namespace tip::engine
