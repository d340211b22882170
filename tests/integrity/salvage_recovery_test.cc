// Quarantine-based salvage recovery: a durable directory with a
// bit-rotted snapshot section refuses to open in strict mode, while
// salvage mode quarantines exactly the damaged table, records where
// the damage sits in the corruption manifest, and recovers everything
// else; footer damage costs no table at all. The recovery story the
// operator follows — inspect tip_health, DROP the lost table,
// CHECKPOINT — must end in a directory that re-opens strict and clean.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "datablade/datablade.h"
#include "engine/catalog/catalog.h"
#include "engine/database.h"
#include "engine/storage/recovery.h"
#include "engine/storage/snapshot.h"

namespace tip::engine {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

class SalvageRecoveryTest : public ::testing::Test {
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
    std::string dir = ::testing::TempDir() + "/tip_salvage_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dirs_.push_back(dir);
    return dir;
  }

  static std::unique_ptr<Database> OpenDb(const std::string& dir,
                                          RecoveryReport* report = nullptr,
                                          RecoveryMode mode =
                                              RecoveryMode::kStrict) {
    auto db = std::make_unique<Database>();
    EXPECT_TRUE(datablade::Install(db.get()).ok());
    Status attached = db->AttachDurableDir(dir, report, mode);
    EXPECT_TRUE(attached.ok()) << attached.ToString();
    return db;
  }

  static ResultSet Exec(Database* db, const std::string& sql) {
    Result<ResultSet> r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  /// Builds the canonical two-table durable directory: both tables
  /// land in the checkpoint snapshot, then `post_checkpoint` rows go
  /// to the WAL only. Returns the snapshot file path.
  std::string BuildDir(const std::string& dir, int post_checkpoint = 0) {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "CREATE TABLE emp (id INT, v CHAR(8))");
    Exec(db.get(), "CREATE TABLE dept (id INT, name CHAR(8))");
    Exec(db.get(), "INSERT INTO emp VALUES (1, 'a'), (2, 'b'), (3, 'c')");
    Exec(db.get(), "INSERT INTO dept VALUES (10, 'eng'), (11, 'ops')");
    EXPECT_TRUE(db->Checkpoint().ok());
    for (int i = 0; i < post_checkpoint; ++i) {
      Exec(db.get(), "INSERT INTO emp VALUES (" + std::to_string(100 + i) +
                         ", 'w')");
      Exec(db.get(), "INSERT INTO dept VALUES (" + std::to_string(200 + i) +
                         ", 'w')");
    }
    Result<std::optional<CheckpointMeta>> meta = ReadCheckpointMeta(dir);
    EXPECT_TRUE(meta.ok() && meta->has_value());
    return dir + "/" + (*meta)->snapshot_file;
  }

  /// Flips one byte inside the body of the v2 snapshot section whose
  /// serialized bytes contain `marker` (the table name), leaving all
  /// other sections intact. Returns false if no section matches.
  static bool FlipSectionContaining(const std::string& snap_path,
                                    const std::string& marker) {
    std::string bytes = ReadAll(snap_path);
    if (bytes.size() < 16 || bytes.compare(0, 8, "TIPSNAP2") != 0) {
      return false;
    }
    uint64_t tables = 0;
    std::memcpy(&tables, bytes.data() + 8, 8);
    size_t at = 16;
    for (uint64_t t = 0; t < tables; ++t) {
      if (at + 12 > bytes.size()) return false;
      uint64_t len = 0;
      std::memcpy(&len, bytes.data() + at, 8);
      const size_t body = at + 12;
      if (body + len > bytes.size()) return false;
      if (bytes.substr(body, len).find(marker) != std::string::npos) {
        bytes[body + len - 1] ^= 0x40;  // last byte of the body
        WriteAll(snap_path, bytes);
        return true;
      }
      at = body + len;
    }
    return false;
  }

  std::vector<std::string> dirs_;
};

TEST_F(SalvageRecoveryTest, StrictAttachRefusesARottedSnapshotSection) {
  const std::string dir = FreshDir("strict");
  const std::string snap = BuildDir(dir);
  ASSERT_TRUE(FlipSectionContaining(snap, "dept"));

  auto db = std::make_unique<Database>();
  ASSERT_TRUE(datablade::Install(db.get()).ok());
  Status attached = db->AttachDurableDir(dir);
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.code(), StatusCode::kCorruption);
  // The error pinpoints the damage: file, section, byte offset.
  EXPECT_NE(attached.message().find(snap), std::string::npos)
      << attached.ToString();
  EXPECT_NE(attached.message().find("byte offset"), std::string::npos)
      << attached.ToString();
}

TEST_F(SalvageRecoveryTest, SalvageQuarantinesTheDamagedTableOnly) {
  const std::string dir = FreshDir("salvage");
  const std::string snap = BuildDir(dir);
  ASSERT_TRUE(FlipSectionContaining(snap, "dept"));

  RecoveryReport report;
  std::unique_ptr<Database> db =
      OpenDb(dir, &report, RecoveryMode::kSalvage);
  EXPECT_TRUE(report.salvage);
  EXPECT_EQ(report.tables_quarantined, 1u);
  ASSERT_EQ(report.manifest.size(), 1u);
  EXPECT_EQ(report.manifest[0].object, "dept");
  EXPECT_EQ(report.manifest[0].file, snap);
  EXPECT_GT(report.manifest[0].offset, 0u);
  EXPECT_NE(report.manifest[0].cause.find("checksum mismatch"),
            std::string::npos)
      << report.manifest[0].cause;

  // The undamaged table recovered in full and is fully usable.
  EXPECT_EQ(Exec(db.get(), "SELECT count(*) FROM emp")
                .rows[0][0]
                .int_value(),
            3);
  Exec(db.get(), "INSERT INTO emp VALUES (4, 'd')");

  // The quarantined one answers everything with Corruption.
  Result<ResultSet> read = db->Execute("SELECT * FROM dept");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  EXPECT_NE(read.status().message().find("quarantined"), std::string::npos)
      << read.status().ToString();

  // The database-level manifest matches the report's.
  std::vector<CorruptionManifestEntry> manifest = db->corruption_manifest();
  ASSERT_EQ(manifest.size(), 1u);
  EXPECT_EQ(manifest[0].object, "dept");
}

TEST_F(SalvageRecoveryTest, DropThenCheckpointEndsTheQuarantine) {
  const std::string dir = FreshDir("repair");
  const std::string snap = BuildDir(dir);
  ASSERT_TRUE(FlipSectionContaining(snap, "dept"));

  RecoveryReport report;
  std::unique_ptr<Database> db =
      OpenDb(dir, &report, RecoveryMode::kSalvage);

  // A checkpoint now would make the quarantine permanent data loss
  // behind the operator's back; it is refused until they accept it.
  Status refused = db->Checkpoint();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("quarantined"), std::string::npos)
      << refused.ToString();

  // tip_health names the patient and the diagnosis.
  ResultSet health = Exec(db.get(), "SELECT tip_health()");
  const std::string& line = health.rows[0][0].string_value();
  EXPECT_NE(line.find("quarantined=1"), std::string::npos) << line;
  EXPECT_NE(line.find("dept:"), std::string::npos) << line;

  // The recovery story: DROP the lost table, then CHECKPOINT.
  Exec(db.get(), "DROP TABLE dept");
  ASSERT_TRUE(db->Checkpoint().ok());

  // The directory is clean again: strict attach succeeds and the
  // surviving data is intact.
  db.reset();
  RecoveryReport clean;
  std::unique_ptr<Database> reopened = OpenDb(dir, &clean);
  EXPECT_EQ(clean.tables_quarantined, 0u);
  EXPECT_TRUE(clean.manifest.empty());
  EXPECT_EQ(Exec(reopened.get(), "SELECT count(*) FROM emp")
                .rows[0][0]
                .int_value(),
            3);
  Result<ResultSet> gone = reopened->Execute("SELECT * FROM dept");
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST_F(SalvageRecoveryTest, SalvageSkipsWalRecordsOfQuarantinedTables) {
  // Damage dept's snapshot section AND leave post-checkpoint WAL
  // records for both tables: salvage must drop dept's records as
  // "skipped" (their table is gone) while replaying emp's in full.
  const std::string dir = FreshDir("wal_skip");
  const std::string snap = BuildDir(dir, /*post_checkpoint=*/3);
  ASSERT_TRUE(FlipSectionContaining(snap, "dept"));

  RecoveryReport report;
  std::unique_ptr<Database> db =
      OpenDb(dir, &report, RecoveryMode::kSalvage);
  EXPECT_EQ(report.tables_quarantined, 1u);
  EXPECT_EQ(report.records_skipped, 3u);
  EXPECT_EQ(Exec(db.get(), "SELECT count(*) FROM emp")
                .rows[0][0]
                .int_value(),
            6);
}

TEST_F(SalvageRecoveryTest, FooterDamageLosesNoTable) {
  // Bits flipped in the low byte of the footer length shorten the
  // footer so that its own fields run out: every section is intact,
  // so salvage must recover both tables and only report the footer.
  for (const int mask : {0x04, 0x08, 0x10}) {
    SCOPED_TRACE("mask " + std::to_string(mask));
    const std::string dir = FreshDir("footer_" + std::to_string(mask));
    const std::string snap = BuildDir(dir);
    std::string bytes = ReadAll(snap);
    // The trailer is u64 footer length | 28-byte footer.
    ASSERT_GT(bytes.size(), 36u);
    bytes[bytes.size() - 36] ^= static_cast<char>(mask);
    WriteAll(snap, bytes);

    Database target;
    ASSERT_TRUE(datablade::Install(&target).ok());
    SalvageReport salvage;
    Status salvaged = SalvageSnapshot(&target, bytes, &salvage);
    ASSERT_TRUE(salvaged.ok()) << salvaged.ToString();
    EXPECT_EQ(salvage.tables_recovered, 2u);
    EXPECT_EQ(salvage.tables_skipped, 0u);
    EXPECT_NE(salvage.detail.find("footer"), std::string::npos)
        << salvage.detail;

    RecoveryReport report;
    std::unique_ptr<Database> db =
        OpenDb(dir, &report, RecoveryMode::kSalvage);
    EXPECT_EQ(report.tables_quarantined, 0u);
    ASSERT_EQ(report.manifest.size(), 1u);
    EXPECT_EQ(report.manifest[0].object, "snapshot");
    EXPECT_EQ(Exec(db.get(), "SELECT count(*) FROM emp")
                  .rows[0][0]
                  .int_value(),
              3);
    EXPECT_EQ(Exec(db.get(), "SELECT count(*) FROM dept")
                  .rows[0][0]
                  .int_value(),
              2);
  }
}

TEST_F(SalvageRecoveryTest, OfflineVerifyFindsTheRotWithoutAttaching) {
  const std::string dir = FreshDir("offline");
  const std::string snap = BuildDir(dir);

  // Clean directory first: tip_verify_dir (from a second, unrelated
  // database) reports clean.
  Database scanner;
  ASSERT_TRUE(datablade::Install(&scanner).ok());
  auto verdict = [&]() {
    Result<ResultSet> r =
        scanner.Execute("SELECT tip_verify_dir('" + dir + "')");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows[0][0].string_value() : std::string();
  };
  std::string clean = verdict();
  EXPECT_EQ(clean.rfind("clean", 0), 0u) << clean;
  EXPECT_NE(clean.find("snapshot_sections=2"), std::string::npos) << clean;

  ASSERT_TRUE(FlipSectionContaining(snap, "dept"));
  std::string corrupt = verdict();
  EXPECT_EQ(corrupt.rfind("corrupt", 0), 0u) << corrupt;
  EXPECT_NE(corrupt.find("checksum mismatch"), std::string::npos) << corrupt;
  // The undamaged section still counts: the scan maps all the damage
  // instead of stopping at the first hit.
  EXPECT_NE(corrupt.find("snapshot_sections=1"), std::string::npos)
      << corrupt;
}

}  // namespace
}  // namespace tip::engine
