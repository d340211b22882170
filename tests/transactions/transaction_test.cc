// Multi-statement transactions: BEGIN/COMMIT/ROLLBACK semantics over
// the embedded engine — pinned NOW, undo-exact rollback (table
// contents, interval indexes AND WAL LSN state, byte-for-byte via the
// snapshot digest), the statement error contract (validation errors
// leave the transaction open, guard trips and I/O failures abort it),
// and the operations a transaction refuses (DDL, SET NOW, SET
// WAL_MODE, checkpoints, nested BEGIN).

#include <gtest/gtest.h>

#include <filesystem>
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

class TransactionTest : public ::testing::Test {
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
    std::string dir = ::testing::TempDir() + "/tip_txn_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dirs_.push_back(dir);
    return dir;
  }

  static std::unique_ptr<Database> OpenPlain() {
    auto db = std::make_unique<Database>();
    EXPECT_TRUE(datablade::Install(db.get()).ok());
    return db;
  }

  static std::unique_ptr<Database> OpenDurable(const std::string& dir) {
    auto db = OpenPlain();
    Status attached = db->AttachDurableDir(dir);
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

  static std::string Digest(const Database& db) {
    Result<std::string> bytes = SaveSnapshot(db);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    return bytes.ok() ? *bytes : std::string();
  }

  /// transaction_time() rendered through the type registry — the
  /// SQL-visible grounding of NOW for the current statement.
  static std::string NowText(Database* db) {
    ResultSet r = Exec(db, "SELECT transaction_time()");
    return db->types().Format(r.rows[0][0]);
  }

  std::vector<std::string> dirs_;
};

TEST_F(TransactionTest, SqlBeginCommitPersistsAtomically) {
  std::unique_ptr<Database> db = OpenPlain();
  Exec(db.get(), "CREATE TABLE t (id INT, v CHAR(4))");
  Exec(db.get(), "INSERT INTO t VALUES (1, 'a')");

  EXPECT_FALSE(db->InTransaction());
  EXPECT_EQ(Exec(db.get(), "BEGIN WORK").message, "BEGIN");
  EXPECT_TRUE(db->InTransaction());
  Exec(db.get(), "INSERT INTO t VALUES (2, 'b')");
  Exec(db.get(), "UPDATE t SET v = 'a2' WHERE id = 1");
  // Uncommitted writes are visible to the transaction's own reads.
  EXPECT_EQ(Count(db.get(), "t"), 2);
  EXPECT_EQ(Exec(db.get(), "COMMIT WORK").message, "COMMIT");
  EXPECT_FALSE(db->InTransaction());

  EXPECT_EQ(Count(db.get(), "t"), 2);
  ResultSet v = Exec(db.get(), "SELECT v FROM t WHERE id = 1");
  EXPECT_EQ(v.rows[0][0].string_value(), "a2");
  EXPECT_EQ(db->durability_stats().txns_committed, 1u);
}

TEST_F(TransactionTest, RollbackRestoresTablesIndexesAndWalByteForByte) {
  const std::string dir = FreshDir("rollback_exact");
  std::unique_ptr<Database> db = OpenDurable(dir);
  Exec(db.get(), "SET wal_mode 'sync'");
  Exec(db.get(), "CREATE TABLE emp (id INT, name CHAR(8), valid Element)");
  Exec(db.get(), "CREATE INDEX emp_valid ON emp (valid) USING interval");
  Exec(db.get(),
       "INSERT INTO emp VALUES (1, 'ada', '{[1999-01-01, NOW]}'), "
       "(2, 'bob', '{[1995-01-01, 1997-01-01]}')");
  // Warm the interval index so the rollback has live index state to
  // invalidate, not just a lazy shell.
  ResultSet pre_probe = Exec(
      db.get(), "SELECT id FROM emp WHERE overlaps(valid, "
                "'{[1996-01-01, 1996-06-01]}')");
  ASSERT_EQ(pre_probe.rows.size(), 1u);

  const std::string before = Digest(*db);
  const DurabilityStats stats_before = db->durability_stats();

  Exec(db.get(), "BEGIN");
  Exec(db.get(), "INSERT INTO emp VALUES (3, 'cyd', '{[1996-02-01, NOW]}')");
  Exec(db.get(), "UPDATE emp SET name = 'mut' WHERE id = 1");
  Exec(db.get(), "DELETE FROM emp WHERE id = 2");
  // The transaction sees its own writes, including through the index.
  ResultSet mid_probe = Exec(
      db.get(), "SELECT id FROM emp WHERE overlaps(valid, "
                "'{[1996-03-01, 1996-06-01]}')");
  EXPECT_EQ(mid_probe.rows.size(), 1u);  // row 3 (row 2 deleted)
  EXPECT_EQ(Exec(db.get(), "ROLLBACK").message, "ROLLBACK");

  // Byte-for-byte: table contents and catalog serialize identically.
  EXPECT_EQ(Digest(*db), before);
  // The WAL too: the transaction's LSNs were un-assigned.
  const DurabilityStats stats_after = db->durability_stats();
  EXPECT_EQ(stats_after.wal_next_lsn, stats_before.wal_next_lsn);
  EXPECT_EQ(stats_after.wal.records_appended,
            stats_before.wal.records_appended);
  EXPECT_EQ(stats_after.txns_rolled_back, stats_before.txns_rolled_back + 1);
  // And the interval index answers as before the transaction.
  ResultSet post_probe = Exec(
      db.get(), "SELECT id FROM emp WHERE overlaps(valid, "
                "'{[1996-01-01, 1996-06-01]}')");
  ASSERT_EQ(post_probe.rows.size(), 1u);
  EXPECT_EQ(post_probe.rows[0][0].int_value(), 2);
}

TEST_F(TransactionTest, ValidationErrorLeavesTheTransactionOpen) {
  std::unique_ptr<Database> db = OpenPlain();
  Exec(db.get(), "CREATE TABLE t (id INT)");
  Exec(db.get(), "BEGIN");
  Exec(db.get(), "INSERT INTO t VALUES (1)");
  // A statement against a missing table is a plain validation error:
  // statement-level atomicity already restored everything it touched,
  // so the transaction survives and can still commit.
  EXPECT_FALSE(db->Execute("INSERT INTO nope VALUES (1)").ok());
  EXPECT_TRUE(db->InTransaction());
  Exec(db.get(), "COMMIT");
  EXPECT_EQ(Count(db.get(), "t"), 1);
}

TEST_F(TransactionTest, GuardTripInsideTransactionAbortsIt) {
  std::unique_ptr<Database> db = OpenPlain();
  Exec(db.get(), "CREATE TABLE t (id INT)");
  Exec(db.get(), "BEGIN");
  Exec(db.get(), "INSERT INTO t VALUES (1)");
  db->set_statement_timeout_ms(30);
  Result<ResultSet> slow = db->Execute("SELECT tip_sleep_ms(5000)");
  db->set_statement_timeout_ms(0);
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(slow.status().code(), StatusCode::kDeadlineExceeded);
  // The timeout took the transaction down with it (the guard contract):
  // its writes are gone and the session is back in auto-commit.
  EXPECT_FALSE(db->InTransaction());
  EXPECT_EQ(Count(db.get(), "t"), 0);
  EXPECT_EQ(db->durability_stats().txns_rolled_back, 1u);
}

TEST_F(TransactionTest, CancelInsideTransactionAbortsIt) {
  std::unique_ptr<Database> db = OpenPlain();
  Exec(db.get(), "CREATE TABLE t (id INT)");
  Exec(db.get(), "BEGIN");
  Exec(db.get(), "INSERT INTO t VALUES (1)");
  std::thread canceller([&db] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    db->CancelActiveStatements();
  });
  Result<ResultSet> slow = db->Execute("SELECT tip_sleep_ms(5000)");
  canceller.join();
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(slow.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(db->InTransaction());
  EXPECT_EQ(Count(db.get(), "t"), 0);
}

TEST_F(TransactionTest, RefusalsInsideATransaction) {
  const std::string dir = FreshDir("refusals");
  std::unique_ptr<Database> db = OpenDurable(dir);
  Exec(db.get(), "CREATE TABLE t (id INT)");
  Exec(db.get(), "BEGIN");

  for (const char* sql : {
           "BEGIN",  // nested
           "CREATE TABLE u (x INT)",
           "DROP TABLE t",
           "CREATE INDEX tidx ON t (id) USING interval",
           "CREATE FUNCTION f(x INT) RETURNS INT AS 'x'",
           "DROP FUNCTION f",
           "SET NOW '1999-01-01'",
           "SET wal_mode 'sync'",
           "SELECT tip_checkpoint()",
       }) {
    Result<ResultSet> r = db->Execute(sql);
    EXPECT_FALSE(r.ok()) << sql << " should be refused in a transaction";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_TRUE(db->InTransaction()) << sql << " must not kill the txn";
  }
  EXPECT_FALSE(db->Checkpoint().ok());
  Exec(db.get(), "COMMIT");

  // Outside a transaction COMMIT/ROLLBACK have nothing to act on.
  EXPECT_FALSE(db->Execute("COMMIT").ok());
  EXPECT_FALSE(db->Execute("ROLLBACK").ok());
  // And the refused operations work again.
  Exec(db.get(), "SET wal_mode 'sync'");
  Exec(db.get(), "CREATE TABLE u (x INT)");
}

TEST_F(TransactionTest, NowIsPinnedForTheWholeTransaction) {
  std::unique_ptr<Database> db = OpenPlain();
  db->SetNowOverride(Chronon::Parse("1999-01-15").value());
  const std::string pinned = NowText(db.get());

  Exec(db.get(), "BEGIN");
  const std::string first = NowText(db.get());
  // A concurrent session flips the override mid-transaction...
  std::thread flipper([&db] {
    db->SetNowOverride(Chronon::Parse("2005-06-30").value());
  });
  flipper.join();
  const std::string second = NowText(db.get());
  Exec(db.get(), "COMMIT");

  // ...but both statements inside the transaction agree on the NOW
  // pinned at BEGIN; the new override takes effect only after COMMIT.
  EXPECT_EQ(first, pinned);
  EXPECT_EQ(second, pinned);
  EXPECT_EQ(NowText(db.get()), "2005-06-30");
}

TEST_F(TransactionTest, ReadOnlyTransactionNeverTouchesTheWal) {
  const std::string dir = FreshDir("readonly");
  std::unique_ptr<Database> db = OpenDurable(dir);
  Exec(db.get(), "CREATE TABLE t (id INT)");
  Exec(db.get(), "INSERT INTO t VALUES (1)");
  const uint64_t appended_before =
      db->durability_stats().wal.records_appended;

  Exec(db.get(), "BEGIN");
  EXPECT_EQ(Count(db.get(), "t"), 1);
  EXPECT_EQ(Count(db.get(), "t"), 1);
  Exec(db.get(), "COMMIT");

  // No write, no bracket: the log is exactly as it was.
  EXPECT_EQ(db->durability_stats().wal.records_appended, appended_before);
}

TEST_F(TransactionTest, FailedCommitAppendRollsTheTransactionBack) {
  const std::string dir = FreshDir("commit_fault");
  std::unique_ptr<Database> db = OpenDurable(dir);
  Exec(db.get(), "CREATE TABLE t (id INT)");
  Exec(db.get(), "INSERT INTO t VALUES (1)");
  const std::string before = Digest(*db);

  Exec(db.get(), "BEGIN");
  Exec(db.get(), "INSERT INTO t VALUES (2)");
  // Arm the very next append: the TXN_COMMIT record.
  fault::InjectAt("wal.append", 0);
  Result<ResultSet> committed = db->Execute("COMMIT");
  fault::ClearAll();
  ASSERT_FALSE(committed.ok());
  // A commit that cannot be logged is a rollback: the transaction is
  // closed and its effects are gone.
  EXPECT_FALSE(db->InTransaction());
  EXPECT_EQ(Digest(*db), before);
  EXPECT_EQ(db->durability_stats().txns_committed, 0u);
  EXPECT_EQ(db->durability_stats().txns_rolled_back, 1u);
}

TEST_F(TransactionTest, StatsBuiltinsSurfaceTransactionCounters) {
  const std::string dir = FreshDir("stats");
  std::unique_ptr<Database> db = OpenDurable(dir);
  Exec(db.get(), "CREATE TABLE t (id INT)");
  Exec(db.get(), "BEGIN");
  Exec(db.get(), "INSERT INTO t VALUES (1)");
  Exec(db.get(), "COMMIT");
  Exec(db.get(), "BEGIN");
  Exec(db.get(), "INSERT INTO t VALUES (2)");
  Exec(db.get(), "ROLLBACK");

  EXPECT_EQ(Exec(db.get(), "SELECT tip_wal_stats('txns_committed')")
                .rows[0][0]
                .int_value(),
            1);
  EXPECT_EQ(Exec(db.get(), "SELECT tip_wal_stats('txns_rolled_back')")
                .rows[0][0]
                .int_value(),
            1);
  EXPECT_EQ(Exec(db.get(), "SELECT tip_wal_stats('txn_records_discarded')")
                .rows[0][0]
                .int_value(),
            0);
  EXPECT_GT(Exec(db.get(), "SELECT tip_wal_stats('next_lsn')")
                .rows[0][0]
                .int_value(),
            0);
  const std::string formatted =
      Exec(db.get(), "SELECT tip_wal_stats()").rows[0][0].string_value();
  EXPECT_NE(formatted.find("txns_committed=1"), std::string::npos)
      << formatted;
  EXPECT_NE(formatted.find("txns_rolled_back=1"), std::string::npos)
      << formatted;
  // EXPLAIN shows the plan only, with no database-wide counter row.
  const std::string explain =
      Exec(db.get(), "EXPLAIN SELECT count(*) FROM t").ToTable(db->types());
  EXPECT_EQ(explain.find("txns_committed="), std::string::npos) << explain;
}

TEST_F(TransactionTest, ClientConnectionTransactionRoundTrip) {
  Result<std::unique_ptr<client::Connection>> conn =
      client::Connection::Open();
  ASSERT_TRUE(conn.ok());
  client::Connection& c = **conn;
  ASSERT_TRUE(c.Execute("CREATE TABLE t (id INT)").ok());

  ASSERT_TRUE(c.Begin().ok());
  EXPECT_TRUE(c.in_transaction());
  EXPECT_FALSE(c.Begin().ok());  // nested
  ASSERT_TRUE(c.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(c.Rollback().ok());
  EXPECT_FALSE(c.in_transaction());
  EXPECT_FALSE(c.Rollback().ok());  // nothing open

  ASSERT_TRUE(c.Begin().ok());
  ASSERT_TRUE(c.Execute("INSERT INTO t VALUES (2)").ok());
  ASSERT_TRUE(c.Commit().ok());
  Result<client::ResultSet> rows = c.Execute("SELECT id FROM t");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->row_count(), 1u);
  EXPECT_EQ(rows->GetInt(0, 0), 2);
}

}  // namespace
}  // namespace tip::engine
