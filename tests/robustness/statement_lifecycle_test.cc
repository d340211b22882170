// End-to-end statement lifecycle guardrails: timeouts, cross-thread
// cancellation, memory budgets and fault injection, exercised through
// the SQL surface (`SET statement_timeout_ms` etc.), the client
// library (`Connection::Cancel`) and the session counters
// (`tip_guard_stats()`), for serial and parallel plans alike. Each
// aborted statement must leave tables and session state untouched.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "client/connection.h"
#include "common/fault_injection.h"
#include "datablade/datablade.h"
#include "engine/database.h"

namespace tip::engine {
namespace {

class StatementLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::ClearAll();
    ASSERT_TRUE(datablade::Install(&db_).ok());
    Exec("SET NOW '1999-11-15'");
    Exec("CREATE TABLE t (id INT, grp INT, valid Element)");
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 400; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 7) +
                ", '{[1999-01-01, NOW]}')";
    }
    Exec(insert);
  }

  void TearDown() override { fault::ClearAll(); }

  ResultSet Exec(std::string_view sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  int64_t Count() {
    return Exec("SELECT count(*) FROM t").rows[0][0].int_value();
  }

  int64_t GuardStat(const std::string& counter) {
    return Exec("SELECT tip_guard_stats('" + counter + "')")
        .rows[0][0].int_value();
  }

  Database db_;
};

TEST_F(StatementLifecycleTest, SerialTimeoutTripsAndClears) {
  const int64_t before = GuardStat("timeouts");
  Exec("SET statement_timeout_ms 20");
  // tip_sleep_ms checks the guard between 1 ms slices, so the scan
  // blows its 20 ms budget long before the 400 rows are done.
  Result<ResultSet> r = db_.Execute("SELECT tip_sleep_ms(5) FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(GuardStat("timeouts"), before + 1);
  // Disarming restores normal service on the same session.
  Exec("SET statement_timeout_ms 0");
  EXPECT_EQ(Count(), 400);
}

TEST_F(StatementLifecycleTest, ParallelTimeoutTrips) {
  // Parallel plans need a table whose rows fill two 2048-row morsels.
  Exec("CREATE TABLE big (id INT, grp INT)");
  for (int batch = 0; batch < 9; ++batch) {
    std::string insert = "INSERT INTO big VALUES ";
    for (int i = 0; i < 512; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(batch * 512 + i) + ", " +
                std::to_string(i % 7) + ")";
    }
    Exec(insert);
  }
  Exec("SET parallel_workers 4");
  const std::string sql =
      "SELECT count(*) FROM big WHERE tip_sleep_ms(5) > 0";
  std::string plan;
  for (const Row& row : Exec("EXPLAIN " + sql).rows) {
    plan += row[0].string_value() + "\n";
  }
  ASSERT_NE(plan.find("ParallelHashAggregate"), std::string::npos) << plan;
  Exec("SET statement_timeout_ms 20");
  Result<ResultSet> r = db_.Execute(sql);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(StatementLifecycleTest, CancelFromAnotherThread) {
  const int64_t before = GuardStat("cancels");
  std::atomic<bool> done{false};
  // The canceller hammers CancelActiveStatements until the victim
  // statement observes it; cancelling when nothing runs is a no-op, so
  // the loop is safe no matter how the two threads interleave.
  std::thread canceller([this, &done] {
    while (!done.load()) {
      db_.CancelActiveStatements();
      std::this_thread::yield();
    }
  });
  Result<ResultSet> r = db_.Execute("SELECT tip_sleep_ms(10) FROM t");
  done.store(true);
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_GE(GuardStat("cancels"), before + 1);
  // The session survives and the data is intact.
  EXPECT_EQ(Count(), 400);
}

TEST_F(StatementLifecycleTest, ClientConnectionCancel) {
  Result<std::unique_ptr<client::Connection>> conn_or =
      client::Connection::Open();
  ASSERT_TRUE(conn_or.ok());
  client::Connection& conn = **conn_or;
  ASSERT_TRUE(conn.Execute("CREATE TABLE u (id INT)").ok());
  ASSERT_TRUE(conn.Execute("INSERT INTO u VALUES (1), (2), (3)").ok());
  std::atomic<bool> done{false};
  std::thread canceller([&conn, &done] {
    while (!done.load()) {
      conn.Cancel();
      std::this_thread::yield();
    }
  });
  Result<client::ResultSet> r =
      conn.Execute("SELECT tip_sleep_ms(50) FROM u");
  done.store(true);
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(conn.Execute("SELECT count(*) FROM u").ok());
}

TEST_F(StatementLifecycleTest, MemoryBudgetTripsBufferingOperators) {
  const int64_t before = GuardStat("oom");
  Exec("SET memory_limit_kb 4");  // 4 KB: a 400-row sort cannot fit
  Result<ResultSet> r =
      db_.Execute("SELECT id FROM t ORDER BY grp, id");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(GuardStat("oom"), before + 1);
  Exec("SET memory_limit_kb 0");
  EXPECT_EQ(Count(), 400);
}

TEST_F(StatementLifecycleTest, AbortedInsertLeavesTableUntouched) {
  Exec("SET memory_limit_kb 2");
  // All rows are evaluated (and accounted) before any is inserted, so a
  // mid-statement trip must not leave a partial batch behind.
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) insert += ", ";
    insert += "(9999, 0, '{[1999-01-01, 1999-06-01]}')";
  }
  Result<ResultSet> r = db_.Execute(insert);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  Exec("SET memory_limit_kb 0");
  EXPECT_EQ(Count(), 400);
  EXPECT_EQ(Exec("SELECT count(*) FROM t WHERE id = 9999")
                .rows[0][0].int_value(),
            0);
}

TEST_F(StatementLifecycleTest, FaultInjectViaSetStatement) {
  // Arm the guard's own reserve path: the next buffering operator
  // fails with the injected fault, deterministically.
  Exec("SET fault_inject 'guard.reserve:0'");
  Result<ResultSet> r = db_.Execute("SELECT id FROM t ORDER BY id");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(fault::IsInjected(r.status())) << r.status().ToString();
  // One-shot: the same statement succeeds on retry.
  EXPECT_TRUE(db_.Execute("SELECT id FROM t ORDER BY id").ok());
  Exec("SET fault_inject off");
}

TEST_F(StatementLifecycleTest, ExplainReportsGuardStatsOnceTripped) {
  // The guard counters are read by name; EXPLAIN shows the plan only,
  // the same before and after a guard trips.
  ResultSet quiet = Exec("EXPLAIN SELECT count(*) FROM t");
  Exec("SET statement_timeout_ms 1");
  (void)db_.Execute("SELECT tip_sleep_ms(5) FROM t");
  Exec("SET statement_timeout_ms 0");
  EXPECT_GE(Exec("SELECT tip_guard_stats('timeouts')").rows[0][0].int_value(),
            1);
  ResultSet plan = Exec("EXPLAIN SELECT count(*) FROM t");
  ASSERT_EQ(plan.rows.size(), quiet.rows.size());
  for (size_t i = 0; i < plan.rows.size(); ++i) {
    EXPECT_EQ(plan.rows[i][0].string_value(),
              quiet.rows[i][0].string_value());
    EXPECT_EQ(plan.rows[i][0].string_value().find("GuardStats"),
              std::string::npos);
  }
}

TEST_F(StatementLifecycleTest, GuardStatsBuiltinFormatsAllCounters) {
  ResultSet r = Exec("SELECT tip_guard_stats()");
  const std::string& text = r.rows[0][0].string_value();
  for (const char* field :
       {"timeouts=", "cancels=", "oom=", "parallel_fallbacks="}) {
    EXPECT_NE(text.find(field), std::string::npos) << text;
  }
}

}  // namespace
}  // namespace tip::engine
