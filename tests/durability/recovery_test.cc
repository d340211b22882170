// End-to-end crash recovery: a durable database re-opened after a
// clean or dirty shutdown must equal the acknowledged history —
// snapshot restore, WAL replay past the checkpoint LSN, torn-tail
// truncation, refusal of a damaged frame that a whole one follows and
// of a log that cannot be read, appends resuming at the checkpoint's
// LSN over a log cut short below it, live-ordinal addressing across
// snapshot compaction, faulted checkpoints, and the statement-level
// invariant that a WAL append failure leaves neither a record nor an
// applied statement.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/connection.h"
#include "common/fault_injection.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "engine/storage/snapshot.h"

namespace tip::engine {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::ClearAll(); }

  void TearDown() override {
    fault::ClearAll();
    for (const std::string& dir : dirs_) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }

  std::string FreshDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "/tip_recovery_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dirs_.push_back(dir);
    return dir;
  }

  /// Opens (or re-opens) a durable database homed in `dir`, running
  /// recovery. Extensions are installed first, as the real client does.
  static std::unique_ptr<Database> OpenDb(const std::string& dir,
                                          RecoveryReport* report = nullptr) {
    auto db = std::make_unique<Database>();
    EXPECT_TRUE(datablade::Install(db.get()).ok());
    Status attached = db->AttachDurableDir(dir, report);
    EXPECT_TRUE(attached.ok()) << attached.ToString();
    return db;
  }

  static ResultSet Exec(Database* db, std::string_view sql) {
    Result<ResultSet> r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  /// The first cell of `sql`'s result as an integer; -1 if it has none.
  static int64_t IntOf(Database* db, std::string_view sql) {
    ResultSet r = Exec(db, sql);
    return r.rows.empty() ? -1 : r.rows[0][0].int_value();
  }

  static int64_t Count(Database* db, const std::string& table) {
    return Exec(db, "SELECT count(*) FROM " + table).rows[0][0].int_value();
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  std::vector<std::string> dirs_;
};

TEST_F(RecoveryTest, FreshAttachReplaysTheWholeWal) {
  const std::string dir = FreshDir("roundtrip");
  // DDL, multi-row inserts, updates, deletes, an interval index, a SQL
  // function and a dropped table — every WAL record kind, over TIP
  // types so the row images exercise the send/receive functions.
  const std::vector<std::string> script = {
      "CREATE TABLE emp (id INT, name CHAR(12), valid Element)",
      "INSERT INTO emp VALUES (1, 'ada', '{[1999-01-01, NOW]}'), "
      "(2, 'bob', '{[1998-01-01, 1998-06-01]}'), "
      "(3, 'cyd', '{[1997-01-01, NOW]}')",
      "CREATE INDEX emp_valid ON emp (valid) USING interval",
      "UPDATE emp SET name = 'ada2' WHERE id = 1",
      "DELETE FROM emp WHERE id = 2",
      "CREATE TABLE scratch (x INT)",
      "INSERT INTO scratch VALUES (10), (20)",
      "CREATE FUNCTION double_it(x INT) RETURNS INT AS 'x * 2'",
      "DROP TABLE scratch",
  };

  {
    RecoveryReport report;
    std::unique_ptr<Database> db = OpenDb(dir, &report);
    EXPECT_TRUE(report.created);
    EXPECT_FALSE(report.snapshot_loaded);
    for (const std::string& sql : script) Exec(db.get(), sql);
  }  // destructor closes the WAL (group-commit tail flushed)

  RecoveryReport report;
  std::unique_ptr<Database> db = OpenDb(dir, &report);
  EXPECT_FALSE(report.created);
  EXPECT_FALSE(report.snapshot_loaded);  // no checkpoint was taken
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.wal_records_replayed, script.size());

  EXPECT_EQ(Count(db.get(), "emp"), 2);
  ResultSet named =
      Exec(db.get(), "SELECT name FROM emp WHERE id = 1");
  ASSERT_EQ(named.rows.size(), 1u);
  EXPECT_EQ(named.rows[0][0].string_value(), "ada2");
  EXPECT_EQ(Exec(db.get(), "SELECT double_it(21)").rows[0][0].int_value(),
            42);
  EXPECT_FALSE(db->Execute("SELECT count(*) FROM scratch").ok());

  // The strongest check: the recovered database serializes to exactly
  // the bytes a fresh database running the same script does.
  Database reference;
  ASSERT_TRUE(datablade::Install(&reference).ok());
  for (const std::string& sql : script) Exec(&reference, sql);
  Result<std::string> recovered_snap = SaveSnapshot(*db);
  Result<std::string> reference_snap = SaveSnapshot(reference);
  ASSERT_TRUE(recovered_snap.ok() && reference_snap.ok());
  EXPECT_EQ(*recovered_snap, *reference_snap);
}

TEST_F(RecoveryTest, CheckpointTruncatesWalAndRestoresFromSnapshot) {
  const std::string dir = FreshDir("checkpoint");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "CREATE TABLE t (x INT)");
    Exec(db.get(), "INSERT INTO t VALUES (1), (2), (3)");
    ASSERT_TRUE(db->Checkpoint().ok());
    // The rotated log is just a header again.
    EXPECT_EQ(std::filesystem::file_size(dir + "/wal.log"), 20u);
    EXPECT_EQ(db->durability_stats().checkpoints, 1u);
    EXPECT_EQ(db->durability_stats().wal.rotations, 1u);
    Exec(db.get(), "INSERT INTO t VALUES (4)");
  }
  {
    RecoveryReport report;
    std::unique_ptr<Database> db = OpenDb(dir, &report);
    EXPECT_TRUE(report.snapshot_loaded);
    EXPECT_GT(report.checkpoint_lsn, 1u);
    // Only the post-checkpoint insert replays; the first three rows
    // come from the snapshot.
    EXPECT_EQ(report.wal_records_replayed, 1u);
    EXPECT_EQ(Count(db.get(), "t"), 4);
    // Checkpointing the recovered database empties the log again.
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  RecoveryReport report;
  std::unique_ptr<Database> db = OpenDb(dir, &report);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.wal_records_replayed, 0u);
  EXPECT_EQ(Count(db.get(), "t"), 4);
}

TEST_F(RecoveryTest, MutationOrdinalsSurviveSnapshotCompaction) {
  const std::string dir = FreshDir("ordinals");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "CREATE TABLE t (id INT)");
    Exec(db.get(), "INSERT INTO t VALUES (1), (2), (3), (4), (5), (6)");
    // Tombstone two rows, then checkpoint: the snapshot compacts the
    // tombstones away, so the surviving rows reload under different
    // RowIds than the live heap ever had.
    Exec(db.get(), "DELETE FROM t WHERE id = 2 OR id = 4");
    ASSERT_TRUE(db->Checkpoint().ok());
    // These mutations are logged with live ordinals computed against
    // the tombstoned heap; replay resolves them against the compacted
    // restore. If addressing were by RowId they would hit the wrong
    // rows (or none).
    Exec(db.get(), "UPDATE t SET id = 30 WHERE id = 3");
    Exec(db.get(), "DELETE FROM t WHERE id = 5");
    Exec(db.get(), "INSERT INTO t VALUES (7)");
  }
  std::unique_ptr<Database> db = OpenDb(dir);
  ResultSet rows = Exec(db.get(), "SELECT id FROM t ORDER BY id");
  ASSERT_EQ(rows.rows.size(), 4u);
  EXPECT_EQ(rows.rows[0][0].int_value(), 1);
  EXPECT_EQ(rows.rows[1][0].int_value(), 6);
  EXPECT_EQ(rows.rows[2][0].int_value(), 7);
  EXPECT_EQ(rows.rows[3][0].int_value(), 30);
}

TEST_F(RecoveryTest, TornWalTailIsTruncatedAndCounted) {
  const std::string dir = FreshDir("torn");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "SET wal_mode 'sync'");
    Exec(db.get(), "CREATE TABLE t (x INT)");
    Exec(db.get(), "INSERT INTO t VALUES (1), (2)");
  }
  // A kill mid-append leaves a partial frame at the end of the log.
  {
    std::FILE* f = std::fopen((dir + "/wal.log").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("partial-frame-garbage", f);
    std::fclose(f);
  }
  {
    RecoveryReport report;
    std::unique_ptr<Database> db = OpenDb(dir, &report);
    EXPECT_TRUE(report.torn_tail);
    EXPECT_EQ(report.torn_bytes_truncated, 21u);
    EXPECT_EQ(report.wal_records_replayed, 2u);
    EXPECT_EQ(Count(db.get(), "t"), 2);
    EXPECT_EQ(db->durability_stats().torn_tail_truncations, 1u);
    EXPECT_EQ(Exec(db.get(),
                   "SELECT tip_wal_stats('torn_tail_truncations')")
                  .rows[0][0].int_value(),
              1);
    Exec(db.get(), "INSERT INTO t VALUES (3)");
  }
  // The truncation was physical, so the next recovery is clean.
  RecoveryReport report;
  std::unique_ptr<Database> db = OpenDb(dir, &report);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(Count(db.get(), "t"), 3);
}

TEST_F(RecoveryTest, DamagedFrameBeforeAWholeOneIsCorruptionNotATornTail) {
  const std::string dir = FreshDir("rot");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "SET wal_mode 'sync'");
    Exec(db.get(), "CREATE TABLE t (x INT)");
    for (int i = 1; i <= 5; ++i) {
      Exec(db.get(), "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
  }
  // Locate LSN 3's frame (the second INSERT) by walking the framing:
  // a 20-byte header, then u32 payload length | u32 CRC | payload.
  const std::string wal_path = dir + "/wal.log";
  std::string bytes = ReadFile(wal_path);
  size_t frame = 20;
  for (int lsn = 1; lsn < 3; ++lsn) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + frame, 4);
    frame += 8 + len;
  }
  ASSERT_LT(frame + 8 + 9, bytes.size());
  // One payload byte of an acknowledged record rots; whole frames with
  // LSNs 4 to 6 follow it, so no crash mid-append explains it.
  bytes[frame + 8 + 9] ^= 0x01;
  WriteFile(wal_path, bytes);

  auto strict = std::make_unique<Database>();
  ASSERT_TRUE(datablade::Install(strict.get()).ok());
  Status attached = strict->AttachDurableDir(dir);
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.code(), StatusCode::kCorruption) << attached.ToString();
  EXPECT_NE(attached.message().find("wal.log"), std::string::npos)
      << attached.ToString();
  EXPECT_NE(attached.message().find("byte offset " + std::to_string(frame)),
            std::string::npos)
      << attached.ToString();
  EXPECT_NE(attached.message().find("lsn=3"), std::string::npos)
      << attached.ToString();
  strict.reset();
  EXPECT_EQ(ReadFile(wal_path), bytes) << "a refused attach changed the log";

  RecoveryReport report;
  auto salvaged = std::make_unique<Database>();
  ASSERT_TRUE(datablade::Install(salvaged.get()).ok());
  Status opened =
      salvaged->AttachDurableDir(dir, &report, RecoveryMode::kSalvage);
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  ASSERT_EQ(report.manifest.size(), 1u);
  EXPECT_EQ(report.manifest[0].object, "wal");
  EXPECT_EQ(report.manifest[0].lsn, 3u);
  EXPECT_EQ(report.manifest[0].offset, frame);
  ResultSet rows = Exec(salvaged.get(), "SELECT x FROM t");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].int_value(), 1);
}

TEST_F(RecoveryTest, UnreadableLogIsRefusedInsteadOfReplaced) {
  const std::string dir = FreshDir("unreadable");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "CREATE TABLE t (x INT)");
  }
  // A log that exists but cannot be read (a directory reads as
  // EISDIR). Only an absent log means "no log yet": creating a fresh
  // one over this would discard every acknowledged record.
  const std::string wal_path = dir + "/wal.log";
  ASSERT_TRUE(std::filesystem::remove(wal_path));
  ASSERT_TRUE(std::filesystem::create_directory(wal_path));
  // A rename cannot replace a directory, so the creation attempt
  // itself is what the hit counter of its first step catches (hits
  // are counted only while a point is armed).
  for (RecoveryMode mode : {RecoveryMode::kStrict, RecoveryMode::kSalvage}) {
    auto db = std::make_unique<Database>();
    ASSERT_TRUE(datablade::Install(db.get()).ok());
    RecoveryReport report;
    fault::InjectAt("wal.create.open", 0);
    const uint64_t creates = fault::HitCount("wal.create.open");
    Status attached = db->AttachDurableDir(dir, &report, mode);
    fault::ClearAll();
    EXPECT_FALSE(attached.ok());
    EXPECT_NE(attached.code(), StatusCode::kNotFound) << attached.ToString();
    EXPECT_FALSE(report.created);
    EXPECT_EQ(fault::HitCount("wal.create.open"), creates)
        << "tried to create a log over one it could not read";
    EXPECT_TRUE(std::filesystem::is_directory(wal_path)) << "log replaced";
  }
}

TEST_F(RecoveryTest, LogCutBelowAnUnrotatedCheckpointResumesAtItsLsn) {
  const std::string dir = FreshDir("unrotated");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "SET wal_mode 'sync'");
    Exec(db.get(), "CREATE TABLE t (x INT)");
    Exec(db.get(), "INSERT INTO t VALUES (1)");
    Exec(db.get(), "INSERT INTO t VALUES (2)");
    // The checkpoint publishes, then its rotation fails: the old log
    // stays, and every record in it sits below the checkpoint's LSN.
    fault::InjectAt("wal.rotate", 0);
    ASSERT_FALSE(db->Checkpoint().ok());
    fault::ClearAll();
  }
  // Tear the last frame: the scan now stops one LSN below the
  // checkpoint, and an append resumed there would be numbered below
  // it, so the next recovery would skip it.
  const std::string wal_path = dir + "/wal.log";
  const std::string bytes = ReadFile(wal_path);
  WriteFile(wal_path, bytes.substr(0, bytes.size() - 3));
  {
    RecoveryReport report;
    std::unique_ptr<Database> db = OpenDb(dir, &report);
    EXPECT_TRUE(report.snapshot_loaded);
    EXPECT_TRUE(report.torn_tail);
    EXPECT_EQ(report.wal_records_replayed, 0u);
    EXPECT_EQ(Count(db.get(), "t"), 2);
    EXPECT_EQ(db->durability_stats().wal_next_lsn, report.checkpoint_lsn);
    Exec(db.get(), "SET wal_mode 'sync'");
    Exec(db.get(), "INSERT INTO t VALUES (3)");
  }
  RecoveryReport report;
  std::unique_ptr<Database> db = OpenDb(dir, &report);
  EXPECT_EQ(report.wal_records_replayed, 1u);
  EXPECT_EQ(Count(db.get(), "t"), 3);
}

TEST_F(RecoveryTest, WalModeOffSkipsLoggingAndLosesThatWork) {
  const std::string dir = FreshDir("mode_off");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "CREATE TABLE t (x INT)");
    Exec(db.get(), "INSERT INTO t VALUES (1)");
    // The transition itself checkpoints (re-baselining the log), so
    // everything up to here is durable; the off-period write is not.
    Exec(db.get(), "SET wal_mode 'off'");
    Exec(db.get(), "INSERT INTO t VALUES (2)");  // acknowledged, not logged
    EXPECT_EQ(Count(db.get(), "t"), 2);
  }
  // Dying while still in off mode loses the unlogged row: that is the
  // contract `off` buys its speed with.
  std::unique_ptr<Database> db = OpenDb(dir);
  ResultSet rows = Exec(db.get(), "SELECT x FROM t ORDER BY x");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].int_value(), 1);
}

TEST_F(RecoveryTest, WalModeOffTransitionsRebaselineTheLog) {
  const std::string dir = FreshDir("off_rebaseline");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "CREATE TABLE t (x INT)");
    Exec(db.get(), "INSERT INTO t VALUES (1), (2), (3)");
    // Unlogged gap that changes the live-ordinal mapping: without the
    // checkpoint forced at each off boundary, the mutate record logged
    // after the gap would replay against the pre-gap state and resolve
    // its ordinal to the wrong row (x=1 instead of x=2).
    Exec(db.get(), "SET wal_mode 'off'");
    Exec(db.get(), "DELETE FROM t WHERE x = 1");
    Exec(db.get(), "SET wal_mode 'group'");
    Exec(db.get(), "UPDATE t SET x = 20 WHERE x = 2");
    // Dirty shutdown: the update is recovered from the WAL alone.
  }
  std::unique_ptr<Database> db = OpenDb(dir);
  ResultSet rows = Exec(db.get(), "SELECT x FROM t ORDER BY x");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].int_value(), 3);
  EXPECT_EQ(rows.rows[1][0].int_value(), 20);
  // The off-period delete survived too: the boundary checkpoint made
  // it durable even though it was never logged.
  EXPECT_EQ(Exec(db.get(), "SELECT count(*) FROM t WHERE x = 1")
                .rows[0][0]
                .int_value(),
            0);
}

TEST_F(RecoveryTest, WalModeOffTransitionIsRefusedWhenCheckpointFails) {
  const std::string dir = FreshDir("off_refused");
  std::unique_ptr<Database> db = OpenDb(dir);
  Exec(db.get(), "CREATE TABLE t (x INT)");
  Exec(db.get(), "INSERT INTO t VALUES (1)");

  // If the re-baselining checkpoint cannot be taken, the mode must not
  // change — flipping anyway would either lose the gap's writes (into
  // off) or corrupt replay (out of off).
  fault::InjectAt("checkpoint.begin", 0);
  EXPECT_FALSE(db->Execute("SET wal_mode 'off'").ok());
  fault::ClearAll();
  EXPECT_EQ(db->wal_mode(), WalMode::kGroup);

  Exec(db.get(), "SET wal_mode 'off'");
  EXPECT_EQ(db->wal_mode(), WalMode::kOff);
  fault::InjectAt("checkpoint.begin", 0);
  EXPECT_FALSE(db->Execute("SET wal_mode 'sync'").ok());
  fault::ClearAll();
  EXPECT_EQ(db->wal_mode(), WalMode::kOff);

  // Transitions that stay on the logging side need no checkpoint and
  // are unaffected by the armed point.
  Exec(db.get(), "SET wal_mode 'group'");
  fault::InjectAt("checkpoint.begin", 0);
  Exec(db.get(), "SET wal_mode 'sync'");
  fault::ClearAll();
  EXPECT_EQ(db->wal_mode(), WalMode::kSync);
}

TEST_F(RecoveryTest, FunctionsTravelInCheckpointMetadata) {
  const std::string dir = FreshDir("functions");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(),
         "CREATE FUNCTION double_it(x INT) RETURNS INT AS 'x * 2'");
    Exec(db.get(), "CREATE TABLE t (x INT)");
    Exec(db.get(), "INSERT INTO t VALUES (1)");
    // The checkpoint rotates the CREATE FUNCTION record away; only the
    // checkpoint metadata can carry the function across the restart
    // (snapshots store tables, not routines).
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    RecoveryReport report;
    std::unique_ptr<Database> db = OpenDb(dir, &report);
    EXPECT_EQ(report.wal_records_replayed, 0u);
    EXPECT_EQ(Exec(db.get(), "SELECT double_it(21)").rows[0][0].int_value(),
              42);
    Exec(db.get(), "DROP FUNCTION double_it");
  }
  {
    // The drop is a WAL record replayed over the metadata's create.
    std::unique_ptr<Database> db = OpenDb(dir);
    EXPECT_FALSE(db->Execute("SELECT double_it(21)").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  std::unique_ptr<Database> db = OpenDb(dir);
  EXPECT_FALSE(db->Execute("SELECT double_it(21)").ok());
}

TEST_F(RecoveryTest, FaultedCheckpointAtEveryStepStillRecovers) {
  // Fail every I/O step of the checkpoint protocol in turn. Whatever
  // the step, re-opening the directory must reproduce all acknowledged
  // rows — from the old checkpoint+WAL pairing or the new one,
  // whichever was durably published. Failures inside the WAL rotation
  // poison the live log (the file's identity is uncertain after a
  // half-done atomic replace), so further writes fail loudly rather
  // than vanish; everything else leaves the session usable.
  const struct {
    const char* point;
    bool poisons_wal;
  } kSteps[] = {
      {"checkpoint.begin", false},     {"snapshot.open", false},
      {"snapshot.write", false},       {"snapshot.fsync", false},
      {"snapshot.close", false},       {"snapshot.rename", false},
      {"snapshot.dirsync", false},     {"checkpoint.commit", false},
      {"checkpoint.meta.open", false}, {"checkpoint.meta.write", false},
      {"checkpoint.meta.fsync", false}, {"checkpoint.meta.close", false},
      {"checkpoint.meta.rename", false}, {"checkpoint.meta.dirsync", false},
      {"wal.rotate", false},           {"wal.rotate.open", true},
      {"wal.rotate.write", true},      {"wal.rotate.fsync", true},
      {"wal.rotate.close", true},      {"wal.rotate.rename", true},
      {"wal.rotate.dirsync", true},
  };
  int index = 0;
  for (const auto& step : kSteps) {
    SCOPED_TRACE(step.point);
    const std::string dir =
        FreshDir("ckpt_fault_" + std::to_string(index++));
    {
      std::unique_ptr<Database> db = OpenDb(dir);
      Exec(db.get(), "CREATE TABLE t (x INT)");
      Exec(db.get(), "INSERT INTO t VALUES (1), (2)");
      fault::InjectAt(step.point, 0);
      Status s = db->Checkpoint();
      ASSERT_FALSE(s.ok());
      EXPECT_TRUE(fault::IsInjected(s)) << s.ToString();
      fault::ClearAll();
      if (step.poisons_wal) {
        EXPECT_FALSE(db->Execute("INSERT INTO t VALUES (3)").ok());
      } else {
        Exec(db.get(), "INSERT INTO t VALUES (3)");
      }
    }
    std::unique_ptr<Database> db = OpenDb(dir);
    EXPECT_EQ(Count(db.get(), "t"), step.poisons_wal ? 2 : 3);
    // The failed attempt left no stray snapshot files behind.
    size_t snapshots = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("snapshot.", 0) == 0) ++snapshots;
    }
    EXPECT_LE(snapshots, 1u);
  }
}

TEST_F(RecoveryTest, WalAppendFaultFailsTheStatementAndAppliesNothing) {
  const std::string dir = FreshDir("append_fault");
  std::unique_ptr<Database> db = OpenDb(dir);
  Exec(db.get(), "CREATE TABLE t (x INT)");

  // DML: logged before apply, so a log failure applies nothing.
  fault::InjectAt("wal.append", 0);
  Result<ResultSet> ins = db->Execute("INSERT INTO t VALUES (1)");
  ASSERT_FALSE(ins.ok());
  EXPECT_TRUE(fault::IsInjected(ins.status()));
  fault::ClearAll();
  EXPECT_EQ(Count(db.get(), "t"), 0);

  // sync mode: a failed fsync also fails (and un-applies) the insert.
  Exec(db.get(), "SET wal_mode 'sync'");
  fault::InjectAt("wal.fsync", 0);
  EXPECT_FALSE(db->Execute("INSERT INTO t VALUES (1)").ok());
  fault::ClearAll();
  EXPECT_EQ(Count(db.get(), "t"), 0);
  Exec(db.get(), "SET wal_mode 'group'");

  // CREATE statements are applied then logged; the undo hook must roll
  // the catalog change back when the log write fails.
  fault::InjectAt("wal.append", 0);
  EXPECT_FALSE(db->Execute("CREATE TABLE u (y INT)").ok());
  fault::ClearAll();
  Exec(db.get(), "CREATE TABLE u (y INT)");  // name is free again

  fault::InjectAt("wal.append", 0);
  EXPECT_FALSE(
      db->Execute("CREATE FUNCTION f(x INT) RETURNS INT AS 'x'").ok());
  fault::ClearAll();
  Exec(db.get(), "CREATE FUNCTION f(x INT) RETURNS INT AS 'x'");

  // DROPs are logged before applying (no undo is possible), so a log
  // failure leaves the object in place.
  fault::InjectAt("wal.append", 0);
  EXPECT_FALSE(db->Execute("DROP TABLE u").ok());
  fault::ClearAll();
  EXPECT_EQ(Count(db.get(), "u"), 0);  // still queryable

  // The durable log and the in-memory state agree after all of it.
  db.reset();
  std::unique_ptr<Database> recovered = OpenDb(dir);
  EXPECT_EQ(Count(recovered.get(), "t"), 0);
  EXPECT_EQ(Count(recovered.get(), "u"), 0);
  EXPECT_EQ(Exec(recovered.get(), "SELECT f(9)").rows[0][0].int_value(), 9);
}

TEST_F(RecoveryTest, CheckpointCarriesEveryFunctionOverload) {
  const std::string dir = FreshDir("function_overloads");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "CREATE FUNCTION f(x INT) RETURNS INT AS 'x + 1'");
    Exec(db.get(), "CREATE FUNCTION f(x DOUBLE) RETURNS INT AS '7'");
    EXPECT_EQ(IntOf(db.get(), "SELECT f(1)"), 2);
    Exec(db.get(), "SELECT tip_checkpoint()");
  }
  RecoveryReport report;
  std::unique_ptr<Database> db = OpenDb(dir, &report);
  EXPECT_EQ(report.wal_records_replayed, 0u);
  EXPECT_EQ(IntOf(db.get(), "SELECT f(1)"), 2);
  EXPECT_EQ(IntOf(db.get(), "SELECT f(1.5)"), 7);
}

TEST_F(RecoveryTest, CheckpointReplaysFunctionsWhateverTheirBodiesCall) {
  const std::string dir = FreshDir("function_callees");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    // z sorts after y but is created first: y's body calls it.
    Exec(db.get(), "CREATE FUNCTION z(x INT) RETURNS INT AS 'x * 10'");
    Exec(db.get(), "CREATE FUNCTION y(x INT) RETURNS INT AS 'z(x) + 1'");
    // Redefining f (DROP, then CREATE) moves it behind g, which calls it.
    Exec(db.get(), "CREATE FUNCTION f(x INT) RETURNS INT AS 'x'");
    Exec(db.get(), "CREATE FUNCTION g(x INT) RETURNS INT AS 'f(x) + 1'");
    Exec(db.get(), "DROP FUNCTION f");
    Exec(db.get(), "CREATE FUNCTION f(x INT) RETURNS INT AS 'x * 2'");
    // a outlives its callee b, and c the table its body reads.
    Exec(db.get(), "CREATE FUNCTION b(x INT) RETURNS INT AS 'x * 10'");
    Exec(db.get(), "CREATE FUNCTION a(x INT) RETURNS INT AS 'b(x) + 1'");
    Exec(db.get(), "DROP FUNCTION b");
    Exec(db.get(), "CREATE TABLE t (x INT)");
    Exec(db.get(),
         "CREATE FUNCTION c(y INT) RETURNS INT AS "
         "'(SELECT count(*) FROM t) + y'");
    Exec(db.get(), "DROP TABLE t");
    EXPECT_EQ(IntOf(db.get(), "SELECT g(3)"), 7);
    Exec(db.get(), "SELECT tip_checkpoint()");
  }
  // The directory opens in both modes and answers as the live database
  // did: y and g call their callees, and only calls of a and c fail.
  for (RecoveryMode mode : {RecoveryMode::kStrict, RecoveryMode::kSalvage}) {
    auto db = std::make_unique<Database>();
    ASSERT_TRUE(datablade::Install(db.get()).ok());
    RecoveryReport report;
    Status attached = db->AttachDurableDir(dir, &report, mode);
    ASSERT_TRUE(attached.ok()) << attached.ToString();
    EXPECT_EQ(report.wal_records_replayed, 0u);
    EXPECT_EQ(IntOf(db.get(), "SELECT y(4)"), 41);
    EXPECT_EQ(IntOf(db.get(), "SELECT g(3)"), 7);
    Result<ResultSet> a = db->Execute("SELECT a(4)");
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kNotFound)
        << a.status().ToString();
    Result<ResultSet> c = db->Execute("SELECT c(1)");
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), StatusCode::kNotFound)
        << c.status().ToString();
  }
}

TEST_F(RecoveryTest, FailedCreateFunctionUndoesOnlyItsOwnOverload) {
  const std::string dir = FreshDir("function_undo");
  std::unique_ptr<Database> db = OpenDb(dir);
  Exec(db.get(), "CREATE FUNCTION f(x INT) RETURNS INT AS 'x + 1'");
  // A CREATE whose log append fails is undone, but only the overload
  // it registered: a DataBlade routine or an earlier CREATE FUNCTION
  // of the same name stays, and the name stays serial-only while one
  // of its routines is.
  fault::InjectAt("wal.append", 0);
  EXPECT_FALSE(
      db->Execute("CREATE FUNCTION length(x INT) RETURNS INT AS 'x'").ok());
  fault::InjectAt("wal.append", 0);
  EXPECT_FALSE(
      db->Execute("CREATE FUNCTION f(x DOUBLE) RETURNS INT AS '7'").ok());
  fault::ClearAll();
  EXPECT_EQ(IntOf(db.get(), "SELECT length('abc')"), 3);
  EXPECT_TRUE(
      db->Execute("SELECT length('{[1999-01-01, 1999-01-03]}'::Element)")
          .ok());
  EXPECT_EQ(IntOf(db.get(), "SELECT f(1)"), 2);
  EXPECT_TRUE(db->routines().SerialOnly("f"));
  EXPECT_FALSE(db->routines().SerialOnly("length"));
}

TEST_F(RecoveryTest, ConcurrentCheckpointsSerializeAndStayRecoverable) {
  const std::string dir = FreshDir("ckpt_race");
  std::unique_ptr<Database> db = OpenDb(dir);
  Exec(db.get(), "CREATE TABLE t (x INT)");
  Exec(db.get(), "INSERT INTO t VALUES (1), (2), (3)");

  // tip_checkpoint() is an ordinary routine, so it can fire per row —
  // three checkpoints back to back must publish cleanly.
  EXPECT_EQ(Exec(db.get(), "SELECT tip_checkpoint() FROM t").rows.size(),
            3u);

  // And from several threads at once: the internal mutex serializes
  // them, so none may fail, none may unlink the snapshot another just
  // published, and the directory must stay recoverable.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&db, &failures] {
      for (int j = 0; j < 8; ++j) {
        if (!db->Checkpoint().ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  db.reset();
  std::unique_ptr<Database> recovered = OpenDb(dir);
  EXPECT_EQ(Count(recovered.get(), "t"), 3);
}

TEST_F(RecoveryTest, StatsBuiltinsAndExplainSurfaceDurabilityCounters) {
  const std::string dir = FreshDir("stats");
  std::unique_ptr<Database> db = OpenDb(dir);
  Exec(db.get(), "CREATE TABLE t (x INT)");
  Exec(db.get(), "INSERT INTO t VALUES (1)");

  const std::string text =
      Exec(db.get(), "SELECT tip_wal_stats()").rows[0][0].string_value();
  EXPECT_NE(text.find("mode=group"), std::string::npos) << text;
  EXPECT_NE(text.find("records_appended=2"), std::string::npos) << text;
  EXPECT_EQ(Exec(db.get(), "SELECT tip_wal_stats('records_appended')")
                .rows[0][0].int_value(),
            2);
  EXPECT_EQ(Exec(db.get(), "SELECT tip_checkpoint()")
                .rows[0][0].int_value(),
            1);
  EXPECT_EQ(Exec(db.get(), "SELECT tip_wal_stats('checkpoints')")
                .rows[0][0].int_value(),
            1);
  EXPECT_FALSE(
      db->Execute("SELECT tip_wal_stats('no_such_counter')").ok());

  // EXPLAIN shows the plan only, with no database-wide counter row.
  ResultSet plan = Exec(db.get(), "EXPLAIN SELECT count(*) FROM t");
  ASSERT_FALSE(plan.rows.empty());
  for (const Row& row : plan.rows) {
    EXPECT_EQ(row[0].string_value().find("WalStats("), std::string::npos);
    EXPECT_EQ(row[0].string_value().find("records_appended="),
              std::string::npos);
  }

  // A non-durable session answers the builtin with zeros and prints the
  // same plan.
  Database plain;
  ASSERT_TRUE(datablade::Install(&plain).ok());
  Exec(&plain, "CREATE TABLE t (x INT)");
  EXPECT_EQ(Exec(&plain, "SELECT tip_wal_stats('records_appended')")
                .rows[0][0].int_value(),
            0);
  EXPECT_FALSE(plain.Execute("SELECT tip_checkpoint()").ok());
  ResultSet quiet = Exec(&plain, "EXPLAIN SELECT count(*) FROM t");
  ASSERT_EQ(quiet.rows.size(), plan.rows.size());
  for (size_t i = 0; i < quiet.rows.size(); ++i) {
    EXPECT_EQ(quiet.rows[i][0].string_value(),
              plan.rows[i][0].string_value());
  }
}

TEST_F(RecoveryTest, GroupSizeSqlControlsFsyncCadence) {
  const std::string dir = FreshDir("group_size");
  std::unique_ptr<Database> db = OpenDb(dir);
  Exec(db.get(), "SET wal_group_size 2");
  Exec(db.get(), "CREATE TABLE t (x INT)");     // pending: 1
  Exec(db.get(), "INSERT INTO t VALUES (1)");   // pending: 2 -> fsync
  Exec(db.get(), "INSERT INTO t VALUES (2)");   // pending: 1
  Exec(db.get(), "INSERT INTO t VALUES (3)");   // pending: 2 -> fsync
  EXPECT_EQ(Exec(db.get(), "SELECT tip_wal_stats('fsyncs')")
                .rows[0][0].int_value(),
            2);
  EXPECT_EQ(Exec(db.get(), "SELECT tip_wal_stats('max_batch_records')")
                .rows[0][0].int_value(),
            2);
  EXPECT_FALSE(db->Execute("SET wal_group_size 0").ok());
  EXPECT_TRUE(db->SyncWal().ok());
}

TEST_F(RecoveryTest, AttachRequiresAFreshDatabase) {
  Database used;
  ASSERT_TRUE(datablade::Install(&used).ok());
  Exec(&used, "CREATE TABLE t (x INT)");
  Status s = used.AttachDurableDir(FreshDir("not_fresh"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  const std::string dir = FreshDir("twice");
  std::unique_ptr<Database> db = OpenDb(dir);
  EXPECT_EQ(db->AttachDurableDir(dir).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RecoveryTest, ClientConnectionOpensDurably) {
  const std::string dir = FreshDir("client");
  {
    Result<std::unique_ptr<client::Connection>> conn =
        client::Connection::OpenDurable(dir);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    ASSERT_TRUE((*conn)->Execute("CREATE TABLE t (x INT)").ok());
    ASSERT_TRUE((*conn)->Execute("INSERT INTO t VALUES (1), (2)").ok());
    ASSERT_TRUE((*conn)->SetWalMode(WalMode::kSync).ok());
    ASSERT_TRUE((*conn)->Execute("INSERT INTO t VALUES (3)").ok());
    ASSERT_TRUE((*conn)->Checkpoint().ok());
    ASSERT_TRUE((*conn)->SyncWal().ok());
  }
  RecoveryReport report;
  Result<std::unique_ptr<client::Connection>> conn =
      client::Connection::OpenDurable(dir, &report);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  EXPECT_TRUE(report.snapshot_loaded);
  Result<client::ResultSet> rows =
      (*conn)->Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->GetInt(0, 0), 3);
}

}  // namespace
}  // namespace tip::engine
