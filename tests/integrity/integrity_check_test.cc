// Online integrity verification: CHECK TABLE / CHECK DATABASE
// recompute each table's content checksum from the live rows,
// cross-check interval indexes against the heap in both directions,
// and report corruption as *data* (one row per object) rather than an
// error, so the operator sees the whole damage map. tip_verify() /
// tip_health() are the callable faces, and quarantined tables must be
// visible to all of them while refusing ordinary statements.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "datablade/datablade.h"
#include "engine/catalog/catalog.h"
#include "engine/database.h"
#include "engine/storage/heap_table.h"

namespace tip::engine {
namespace {

class IntegrityCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::ClearAll();
    ASSERT_TRUE(datablade::Install(&db_).ok());
  }
  void TearDown() override { fault::ClearAll(); }

  ResultSet Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  /// The (status, detail) pair CHECK reported for `object`; ("","") if
  /// the object has no row.
  static std::pair<std::string, std::string> CheckRow(
      const ResultSet& rs, const std::string& object) {
    for (const Row& row : rs.rows) {
      if (row[0].string_value() == object) {
        return {row[1].string_value(), row[2].string_value()};
      }
    }
    return {"", ""};
  }

  std::string Scalar(const std::string& sql) {
    ResultSet rs = Exec(sql);
    EXPECT_EQ(rs.rows.size(), 1u) << sql;
    return rs.rows.empty() ? "" : rs.rows[0][0].string_value();
  }

  Database db_;
};

TEST_F(IntegrityCheckTest, CheckTableReportsRowsChecksumAndIndexes) {
  Exec("CREATE TABLE emp (id INT, valid Element)");
  Exec("CREATE INDEX emp_valid ON emp (valid) USING interval");
  Exec("INSERT INTO emp VALUES (1, '{[1999-01-01, NOW]}'), "
       "(2, '{[1998-01-01, 1998-06-01]}'), (3, '{[1997-01-01, NOW]}')");

  ResultSet rs = Exec("CHECK TABLE emp");
  ASSERT_EQ(rs.rows.size(), 1u);
  auto [status, detail] = CheckRow(rs, "emp");
  EXPECT_EQ(status, "ok");
  EXPECT_NE(detail.find("rows=3"), std::string::npos) << detail;
  EXPECT_NE(detail.find("checksum=0x"), std::string::npos) << detail;
  EXPECT_NE(detail.find("indexes=1"), std::string::npos) << detail;
  EXPECT_EQ(rs.message, "CHECK OK");
}

TEST_F(IntegrityCheckTest, CheckTableOfUnknownTableIsNotFound) {
  Result<ResultSet> r = db_.Execute("CHECK TABLE nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(IntegrityCheckTest, CheckDatabaseCoversEveryTable) {
  Exec("CREATE TABLE a (id INT)");
  Exec("CREATE TABLE b (id INT)");
  Exec("INSERT INTO a VALUES (1)");

  ResultSet rs = Exec("CHECK DATABASE");
  ASSERT_EQ(rs.rows.size(), 2u);  // no WAL row: not durable
  EXPECT_EQ(CheckRow(rs, "a").first, "ok");
  EXPECT_EQ(CheckRow(rs, "b").first, "ok");
}

TEST_F(IntegrityCheckTest, PerturbedRowHashIsDetectedAsChecksumMismatch) {
  Exec("CREATE TABLE t (id INT, v CHAR(8))");
  // The armed fault perturbs exactly one row hash on the write path —
  // the in-memory equivalent of a flipped bit in the row image — so
  // the maintained sum diverges from what the rows actually contain.
  fault::InjectAt("integrity.rowhash", 0);
  Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b')");

  ResultSet rs = Exec("CHECK TABLE t");
  auto [status, detail] = CheckRow(rs, "t");
  EXPECT_EQ(status, "corrupt");
  EXPECT_NE(detail.find("content checksum mismatch"), std::string::npos)
      << detail;
  EXPECT_EQ(rs.message, "CHECK FOUND 1 CORRUPT OBJECT(S)");

  // The verdict is stable: a second CHECK reports the same mismatch
  // rather than quietly adopting the wrong sum.
  EXPECT_EQ(CheckRow(Exec("CHECK TABLE t"), "t").first, "corrupt");
}

TEST_F(IntegrityCheckTest, ChecksumsCannotBeSwitchedOffToEraseDamage) {
  Exec("CREATE TABLE t (id INT)");
  fault::InjectAt("integrity.rowhash", 0);
  Exec("INSERT INTO t VALUES (1)");

  // Checksums are not a setting: no session can suspend them, so no
  // later write can lapse the damaged sum and no CHECK can adopt it.
  EXPECT_EQ(db_.Execute("SET table_checksums off").status().code(),
            StatusCode::kInvalidArgument);
  Exec("INSERT INTO t VALUES (2)");
  for (int i = 0; i < 2; ++i) {
    auto [status, detail] = CheckRow(Exec("CHECK TABLE t"), "t");
    EXPECT_EQ(status, "corrupt") << "CHECK " << i;
    EXPECT_NE(detail.find("content checksum mismatch"), std::string::npos)
        << detail;
  }
}

TEST_F(IntegrityCheckTest, CorruptIndexEntryIsDetectedInBothDirections) {
  Exec("CREATE TABLE emp (id INT, valid Element)");
  Exec("CREATE INDEX emp_valid ON emp (valid) USING interval");
  Exec("INSERT INTO emp VALUES (1, '{[1999-01-01, 1999-06-01]}'), "
       "(2, '{[1998-01-01, 1998-06-01]}')");

  // The armed fault records one entry under a wrong row id during the
  // next index build — the build CHECK itself triggers. That single
  // rotted entry must trip both cross-check directions: a phantom
  // entry addressing no live row, and a live row the index lost.
  fault::InjectAt("integrity.indexentry", 0);
  auto [status, detail] = CheckRow(Exec("CHECK TABLE emp"), "emp");
  EXPECT_EQ(status, "corrupt");
  EXPECT_NE(detail.find("index 'emp_valid'"), std::string::npos) << detail;
  EXPECT_NE(detail.find("not a live heap row"), std::string::npos) << detail;
  EXPECT_NE(detail.find("missing from the index"), std::string::npos)
      << detail;

  // CHECK dropped the rotted segments: the next probe rebuilds them
  // from the heap (the fault fired once and disarmed) and the next
  // CHECK is clean. The finding still counts.
  auto builds = [this] {
    return Exec("SELECT tip_index_stats('emp', 'emp_valid', "
                "'absolute_builds')").rows[0][0].int_value();
  };
  EXPECT_EQ(builds(), 1);
  ResultSet probe = Exec(
      "SELECT id FROM emp WHERE overlaps(valid, "
      "'{[1998-03-01, 1999-03-01]}'::Element)");
  EXPECT_EQ(probe.rows.size(), 2u);
  EXPECT_EQ(builds(), 2);
  EXPECT_EQ(CheckRow(Exec("CHECK TABLE emp"), "emp").first, "ok");
  EXPECT_GE(Exec("SELECT tip_health('corruptions_found')")
                .rows[0][0].int_value(),
            1);
}

TEST_F(IntegrityCheckTest, IndexCheckGivesOneVerdictAtEveryNow) {
  Exec("CREATE TABLE emp (id INT, valid Element)");
  Exec("CREATE INDEX emp_valid ON emp (valid) USING interval");
  Exec("INSERT INTO emp VALUES (1, '{[1998-01-01, 1998-06-01]}')");

  // The open row covers no time before its start, so at NOW 1999-09-17
  // no probe meets its entry; CHECK compares entries as stored and must
  // reach the same verdict there as at NOW 1999-11-15.
  for (const char* now : {"'1999-09-17'", "'1999-11-15'"}) {
    SCOPED_TRACE(now);
    Exec(std::string("SET NOW ") + now);
    EXPECT_EQ(CheckRow(Exec("CHECK TABLE emp"), "emp").first, "ok");

    // The catch-up CHECK triggers after this INSERT files the open
    // row's entry under a wrong row id.
    fault::InjectAt("integrity.indexentry", 0);
    Exec("INSERT INTO emp VALUES (2, '{[1999-10-01, NOW]}')");
    auto [status, detail] = CheckRow(Exec("CHECK TABLE emp"), "emp");
    fault::ClearAll();
    EXPECT_EQ(status, "corrupt");
    EXPECT_NE(detail.find("not a live heap row"), std::string::npos)
        << detail;
    EXPECT_NE(detail.find("missing from the index"), std::string::npos)
        << detail;

    // CHECK dropped the rot; the rebuild the next CHECK triggers is
    // clean.
    EXPECT_EQ(CheckRow(Exec("CHECK TABLE emp"), "emp").first, "ok");
    Exec("DELETE FROM emp WHERE id = 2");
  }
}

TEST_F(IntegrityCheckTest, TipVerifyAndHealthReportTheScrub) {
  Exec("CREATE TABLE t (id INT)");
  Exec("INSERT INTO t VALUES (1)");

  EXPECT_EQ(Scalar("SELECT tip_verify()"), "ok objects=1");
  std::string health = Scalar("SELECT tip_health()");
  EXPECT_NE(health.find("scrubs_run=1"), std::string::npos) << health;
  EXPECT_NE(health.find("corruptions_found=0"), std::string::npos) << health;

  // Now break the checksum and verify again: the verdict flips and the
  // counters advance.
  fault::InjectAt("integrity.rowhash", 0);
  Exec("INSERT INTO t VALUES (2)");
  std::string verdict = Scalar("SELECT tip_verify()");
  EXPECT_NE(verdict.find("corrupt=1"), std::string::npos) << verdict;
  EXPECT_NE(verdict.find("content checksum mismatch"), std::string::npos)
      << verdict;

  ResultSet counter = Exec("SELECT tip_health('corruptions_found')");
  ASSERT_EQ(counter.rows.size(), 1u);
  EXPECT_GE(counter.rows[0][0].int_value(), 1);
  EXPECT_EQ(Exec("SELECT tip_health('scrubs_run')").rows[0][0].int_value(),
            2);
}

TEST_F(IntegrityCheckTest, ExplainSurfacesIntegrityStatsAfterAScrub) {
  Exec("CREATE TABLE t (id INT)");
  auto explain_lines = [this]() {
    std::string all;
    for (const Row& row : Exec("EXPLAIN SELECT * FROM t").rows) {
      all += row[0].string_value() + "\n";
    }
    return all;
  };
  // The scrub is counted by name; EXPLAIN shows the same plan, with no
  // database-wide counter row, before and after it.
  std::string before = explain_lines();
  EXPECT_EQ(before.find("IntegrityStats("), std::string::npos) << before;

  Exec("CHECK DATABASE");
  EXPECT_EQ(Exec("SELECT tip_health('scrubs_run')").rows[0][0].int_value(),
            1);
  EXPECT_EQ(explain_lines(), before);
}

TEST_F(IntegrityCheckTest, QuarantinedTableRefusesStatementsButStaysVisible) {
  Exec("CREATE TABLE good (id INT)");
  Exec("CREATE TABLE bad (id INT)");
  Exec("INSERT INTO bad VALUES (1)");
  db_.catalog().Quarantine("bad", "unit-test damage");

  // Every ordinary statement is an explicit Corruption, not NotFound.
  for (const char* sql : {"SELECT * FROM bad", "INSERT INTO bad VALUES (2)",
                          "UPDATE bad SET id = 3", "DELETE FROM bad"}) {
    Result<ResultSet> r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << sql;
  }

  // CHECK and the health builtins still see it.
  ResultSet rs = Exec("CHECK DATABASE");
  EXPECT_EQ(CheckRow(rs, "bad").first, "quarantined");
  EXPECT_EQ(CheckRow(rs, "good").first, "ok");
  std::string health = Scalar("SELECT tip_health()");
  EXPECT_NE(health.find("bad: unit-test damage"), std::string::npos)
      << health;
  EXPECT_EQ(Exec("SELECT tip_health('quarantined')").rows[0][0].int_value(),
            1);

  // DROP is the repair verb: it clears the quarantine entry.
  Exec("DROP TABLE bad");
  EXPECT_EQ(Exec("SELECT tip_health('quarantined')").rows[0][0].int_value(),
            0);
  EXPECT_EQ(CheckRow(Exec("CHECK DATABASE"), "bad").first, "");
}

TEST_F(IntegrityCheckTest, CachedPlanNeverExecutesAgainstAQuarantinedTable) {
  Exec("CREATE TABLE t (id INT)");
  Exec("INSERT INTO t VALUES (1), (2)");

  Result<std::shared_ptr<const PreparedPlan>> plan =
      db_.Prepare("SELECT count(*) FROM t");
  ASSERT_TRUE(plan.ok());
  Result<ResultSet> first = db_.ExecutePrepared(**plan);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->rows[0][0].int_value(), 2);

  // Quarantine bumps the catalog version, so the cached plan must
  // revalidate and fail with Corruption — never serve stale rows from
  // a table the engine has declared damaged.
  db_.catalog().Quarantine("t", "unit-test damage");
  Result<ResultSet> second = db_.ExecutePrepared(**plan);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kCorruption);

  // After the repair (drop + recreate) the same handle replans and
  // runs against the fresh table.
  Exec("DROP TABLE t");
  Exec("CREATE TABLE t (id INT)");
  Exec("INSERT INTO t VALUES (7)");
  Result<ResultSet> third = db_.ExecutePrepared(**plan);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->rows[0][0].int_value(), 1);
}

TEST_F(IntegrityCheckTest, ScrubTickWalksTablesRoundRobin) {
  Exec("CREATE TABLE a (id INT)");
  Exec("CREATE TABLE b (id INT)");
  Exec("CREATE TABLE c (id INT)");
  Exec("INSERT INTO a VALUES (1)");

  // Four ticks over three tables: the cursor wraps back to the front.
  std::vector<std::string> visited;
  for (int i = 0; i < 4; ++i) {
    Result<std::string> target = db_.ScrubTick();
    ASSERT_TRUE(target.ok()) << target.status().ToString();
    visited.push_back(*target);
  }
  EXPECT_EQ(visited, (std::vector<std::string>{"a", "b", "c", "a"}));
  EXPECT_EQ(Exec("SELECT tip_health('scrub_ticks')").rows[0][0].int_value(),
            4);
  EXPECT_EQ(Exec("SELECT tip_health('scrubs_run')").rows[0][0].int_value(),
            4);
  std::string health = Scalar("SELECT tip_health()");
  EXPECT_NE(health.find("scrub_ticks=4"), std::string::npos) << health;
}

TEST_F(IntegrityCheckTest, ScrubRunsOnCheckpointOnlyWhileEnabled) {
  const std::string dir =
      ::testing::TempDir() + "/tip_integrity_scrub_checkpoint";
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  std::filesystem::create_directories(dir);

  ASSERT_TRUE(db_.AttachDurableDir(dir).ok());
  Exec("CREATE TABLE t (id INT)");
  Exec("INSERT INTO t VALUES (1)");

  // Off by default: checkpoints do not scrub.
  ASSERT_TRUE(db_.Checkpoint().ok());
  EXPECT_EQ(Exec("SELECT tip_health('scrub_ticks')").rows[0][0].int_value(),
            0);

  Exec("SET scrub on");
  EXPECT_TRUE(db_.scrub_enabled());
  ASSERT_TRUE(db_.Checkpoint().ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  EXPECT_EQ(Exec("SELECT tip_health('scrub_ticks')").rows[0][0].int_value(),
            2);

  Exec("SET scrub off");
  ASSERT_TRUE(db_.Checkpoint().ok());
  EXPECT_EQ(Exec("SELECT tip_health('scrub_ticks')").rows[0][0].int_value(),
            2);

  std::filesystem::remove_all(dir, ignored);
}

TEST_F(IntegrityCheckTest, ScrubFindingLandsInTheCorruptionManifest) {
  Exec("CREATE TABLE t (id INT, v CHAR(8))");
  fault::InjectAt("integrity.rowhash", 0);
  Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b')");

  Result<std::string> target = db_.ScrubTick();
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  EXPECT_EQ(*target, "t");

  EXPECT_GE(
      Exec("SELECT tip_health('corruptions_found')").rows[0][0].int_value(),
      1);
  EXPECT_GE(
      Exec("SELECT tip_health('manifest_entries')").rows[0][0].int_value(),
      1);
  // The manifest names the scrubber, not a client statement, as the
  // discoverer.
  std::string health = Scalar("SELECT tip_health()");
  EXPECT_NE(health.find("(online scrub)"), std::string::npos) << health;
}

}  // namespace
}  // namespace tip::engine
