// Transaction brackets in the write-ahead log: recovery replays only
// committed transactions, discards uncommitted tails and aborted
// brackets, rejects structurally impossible bracket sequences as
// corruption, and ROLLBACK physically rewinds the log file to its
// pre-transaction bytes.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "engine/storage/snapshot.h"
#include "engine/storage/wal.h"

namespace tip::engine {
namespace {

class TxnRecoveryTest : public ::testing::Test {
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
    std::string dir = ::testing::TempDir() + "/tip_txn_rec_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dirs_.push_back(dir);
    return dir;
  }

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

  static int64_t Count(Database* db, const std::string& table) {
    return Exec(db, "SELECT count(*) FROM " + table).rows[0][0].int_value();
  }

  /// Appends raw bracket records to a closed database's log, to
  /// simulate tails no live engine would produce.
  static void AppendRawRecords(const std::string& dir,
                               const std::vector<WalRecordKind>& kinds) {
    Result<WalScan> scan = ScanWal(dir + "/wal.log");
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    Result<std::unique_ptr<Wal>> wal =
        Wal::Open(dir + "/wal.log", scan,
                  WalkBrackets(*scan, scan->start_lsn), scan->start_lsn);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (WalRecordKind kind : kinds) {
      Result<uint64_t> lsn = (*wal)->Append(kind, "", WalMode::kSync);
      ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    }
  }

  std::vector<std::string> dirs_;
};

TEST_F(TxnRecoveryTest, CommittedTransactionIsReplayedOnReopen) {
  const std::string dir = FreshDir("committed");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "SET wal_mode 'sync'");
    Exec(db.get(), "CREATE TABLE t (id INT, v CHAR(4))");
    Exec(db.get(), "BEGIN");
    Exec(db.get(), "INSERT INTO t VALUES (1, 'a')");
    Exec(db.get(), "INSERT INTO t VALUES (2, 'b')");
    Exec(db.get(), "UPDATE t SET v = 'a2' WHERE id = 1");
    Exec(db.get(), "COMMIT");
  }
  RecoveryReport report;
  std::unique_ptr<Database> db = OpenDb(dir, &report);
  EXPECT_EQ(report.txns_replayed, 1u);
  EXPECT_EQ(report.txn_records_discarded, 0u);
  EXPECT_EQ(report.wal_records_replayed, 4u);  // CREATE + 2 inserts + update
  EXPECT_EQ(Count(db.get(), "t"), 2);
  EXPECT_EQ(Exec(db.get(), "SELECT v FROM t WHERE id = 1")
                .rows[0][0]
                .string_value(),
            "a2");
}

TEST_F(TxnRecoveryTest, UncommittedTailIsDiscardedOnReopen) {
  const std::string dir = FreshDir("uncommitted");
  std::string base_digest;
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "SET wal_mode 'sync'");
    Exec(db.get(), "CREATE TABLE t (id INT)");
    Exec(db.get(), "INSERT INTO t VALUES (1)");
    {
      Database reference;
      ASSERT_TRUE(datablade::Install(&reference).ok());
      Exec(&reference, "CREATE TABLE t (id INT)");
      Exec(&reference, "INSERT INTO t VALUES (1)");
      base_digest = SaveSnapshot(reference).value();
    }
    Exec(db.get(), "BEGIN");
    Exec(db.get(), "INSERT INTO t VALUES (2)");
    Exec(db.get(), "INSERT INTO t VALUES (3)");
    // Database goes away with the transaction still open: the log ends
    // with TXN_BEGIN + two inserts and no commit record — exactly what
    // a crash mid-transaction leaves behind.
  }
  RecoveryReport report;
  std::unique_ptr<Database> db = OpenDb(dir, &report);
  EXPECT_EQ(report.txns_replayed, 0u);
  EXPECT_EQ(report.txn_records_discarded, 2u);
  EXPECT_EQ(report.wal_records_replayed, 2u);  // CREATE + first insert
  EXPECT_EQ(Count(db.get(), "t"), 1);
  EXPECT_EQ(SaveSnapshot(*db).value(), base_digest);
  EXPECT_EQ(db->durability_stats().txn_records_discarded, 2u);

  // Recovery cut the unclosed bracket off the log, so a write after
  // the reopen lands behind the last replayed record instead of inside
  // the dead bracket, and survives the next reopen.
  Exec(db.get(), "SET wal_mode 'sync'");
  Exec(db.get(), "INSERT INTO t VALUES (4)");
  db.reset();
  RecoveryReport again;
  db = OpenDb(dir, &again);
  EXPECT_EQ(again.txn_records_discarded, 0u);
  ResultSet rows = Exec(db.get(), "SELECT id FROM t ORDER BY id");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].int_value(), 1);
  EXPECT_EQ(rows.rows[1][0].int_value(), 4);
}

TEST_F(TxnRecoveryTest, AbortBracketIsSkippedAndEmptyCommitApplies) {
  const std::string dir = FreshDir("abort");
  {
    std::unique_ptr<Database> db = OpenDb(dir);
    Exec(db.get(), "SET wal_mode 'sync'");
    Exec(db.get(), "CREATE TABLE t (id INT)");
  }
  // A hand-written tail: an aborted empty bracket, then a committed
  // empty bracket. Neither applies records, both must parse.
  AppendRawRecords(dir, {WalRecordKind::kTxnBegin, WalRecordKind::kTxnAbort,
                         WalRecordKind::kTxnBegin,
                         WalRecordKind::kTxnCommit});
  RecoveryReport report;
  std::unique_ptr<Database> db = OpenDb(dir, &report);
  EXPECT_EQ(report.txns_replayed, 1u);
  EXPECT_EQ(report.txn_records_discarded, 0u);
  EXPECT_EQ(Count(db.get(), "t"), 0);
}

TEST_F(TxnRecoveryTest, StructurallyImpossibleBracketsAreCorruption) {
  const struct {
    const char* name;
    std::vector<WalRecordKind> tail;
  } cases[] = {
      {"commit_without_begin", {WalRecordKind::kTxnCommit}},
      {"abort_without_begin", {WalRecordKind::kTxnAbort}},
      {"nested_begin",
       {WalRecordKind::kTxnBegin, WalRecordKind::kTxnBegin}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = FreshDir(c.name);
    {
      std::unique_ptr<Database> db = OpenDb(dir);
      Exec(db.get(), "SET wal_mode 'sync'");
      Exec(db.get(), "CREATE TABLE t (id INT)");
    }
    AppendRawRecords(dir, c.tail);
    auto db = std::make_unique<Database>();
    ASSERT_TRUE(datablade::Install(db.get()).ok());
    Status attached = db->AttachDurableDir(dir);
    EXPECT_FALSE(attached.ok());
    EXPECT_EQ(attached.code(), StatusCode::kCorruption)
        << attached.ToString();

    // Salvage keeps the replayed prefix and cuts the log where replay
    // stopped, so a write taken after it is replayed by the next
    // strict attach instead of hiding behind the impossible bracket.
    {
      RecoveryReport report;
      auto salvaged = std::make_unique<Database>();
      ASSERT_TRUE(datablade::Install(salvaged.get()).ok());
      Status opened =
          salvaged->AttachDurableDir(dir, &report, RecoveryMode::kSalvage);
      ASSERT_TRUE(opened.ok()) << opened.ToString();
      ASSERT_EQ(report.manifest.size(), 1u);
      EXPECT_EQ(report.manifest[0].object, "wal");
      Exec(salvaged.get(), "SET wal_mode 'sync'");
      Exec(salvaged.get(), "INSERT INTO t VALUES (7)");
    }
    std::unique_ptr<Database> reopened = OpenDb(dir);
    EXPECT_EQ(Count(reopened.get(), "t"), 1);
  }
}

TEST_F(TxnRecoveryTest, RollbackRewindsTheLogFileToItsPreBeginBytes) {
  const std::string dir = FreshDir("rewind");
  std::unique_ptr<Database> db = OpenDb(dir);
  Exec(db.get(), "SET wal_mode 'sync'");
  Exec(db.get(), "CREATE TABLE t (id INT)");
  Exec(db.get(), "INSERT INTO t VALUES (1)");

  const std::string wal_path = dir + "/wal.log";
  const auto size_before = std::filesystem::file_size(wal_path);
  const uint64_t lsn_before = db->durability_stats().wal_next_lsn;

  Exec(db.get(), "BEGIN");
  Exec(db.get(), "INSERT INTO t VALUES (2)");
  Exec(db.get(), "INSERT INTO t VALUES (3)");
  EXPECT_GT(std::filesystem::file_size(wal_path), size_before);
  Exec(db.get(), "ROLLBACK");

  EXPECT_EQ(std::filesystem::file_size(wal_path), size_before);
  EXPECT_EQ(db->durability_stats().wal_next_lsn, lsn_before);

  // The rewound log replays cleanly — and LSNs reassigned after the
  // rollback don't collide with the discarded ones.
  Exec(db.get(), "INSERT INTO t VALUES (4)");
  db.reset();
  RecoveryReport report;
  std::unique_ptr<Database> reopened = OpenDb(dir, &report);
  EXPECT_EQ(report.txn_records_discarded, 0u);
  EXPECT_EQ(Count(reopened.get(), "t"), 2);
}

TEST_F(TxnRecoveryTest, CommittedTransactionsReplayAcrossAllLoggingModes) {
  for (const char* mode : {"async", "group", "sync"}) {
    SCOPED_TRACE(mode);
    const std::string dir = FreshDir(std::string("mode_") + mode);
    {
      std::unique_ptr<Database> db = OpenDb(dir);
      Exec(db.get(), std::string("SET wal_mode '") + mode + "'");
      Exec(db.get(), "CREATE TABLE t (id INT)");
      Exec(db.get(), "BEGIN");
      Exec(db.get(), "INSERT INTO t VALUES (1)");
      Exec(db.get(), "COMMIT");
      Exec(db.get(), "BEGIN");
      Exec(db.get(), "INSERT INTO t VALUES (2)");
      Exec(db.get(), "ROLLBACK");
    }
    RecoveryReport report;
    std::unique_ptr<Database> db = OpenDb(dir, &report);
    EXPECT_EQ(report.txns_replayed, 1u);
    EXPECT_EQ(report.txn_records_discarded, 0u);
    EXPECT_EQ(Count(db.get(), "t"), 1);
  }
}

}  // namespace
}  // namespace tip::engine
