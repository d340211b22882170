#include "capi/tip_c.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "testing/transports.h"

namespace {

using tip::transports::Transport;
using tip::transports::TransportHarness;

/// The C client library, exercised from gtest. Handles must behave like
/// C handles: NULL-safe, owning their strings, no exceptions. Each
/// shared case runs on an embedded handle (CApiTest.*) and on
/// tip_connect to an in-process tipd over loopback (CApiRemoteTest.*).
class CApiTest : public ::testing::Test {
 protected:
  virtual Transport transport() const { return Transport::kEmbedded; }

  void SetUp() override {
    conn_ = Open(&harness_, "");
    ASSERT_NE(conn_, nullptr);
    ASSERT_EQ(tip_set_now(conn_, "1999-11-15"), 0);
    Must("CREATE TABLE t (name CHAR(8), n INT, x DOUBLE, v Element)");
    Must("INSERT INTO t VALUES ('a', 1, 0.5, '{[1999-01-01, NOW]}'), "
         "('b', NULL, NULL, NULL)");
  }

  void TearDown() override { tip_close(conn_); }

  /// A handle on the fixture's transport to a database that is durable
  /// in `dir`, or memory-only when `dir` is empty: tip_open or
  /// tip_open_dir embedded, else tip_connect to a tipd that `harness`
  /// starts over such a database.
  tip_connection* Open(TransportHarness* harness, const std::string& dir) {
    if (transport() == Transport::kEmbedded) {
      return dir.empty() ? tip_open() : tip_open_dir(dir.c_str());
    }
    tip::Status started = harness->Start(Transport::kTipd, dir);
    EXPECT_TRUE(started.ok()) << started.ToString();
    return started.ok() ? tip_connect("127.0.0.1", harness->port())
                        : nullptr;
  }

  void Must(const char* sql) {
    ASSERT_EQ(tip_exec(conn_, sql, nullptr), 0) << tip_last_error(conn_);
  }

  // The cases both transports run (CAPI_TEST).
  void QueryAndMetadata();
  void ErrorsAreReported();
  void NowOverrideChangesAnswers();
  void DmlReportsAffectedRows();
  void TransactionsCommitAndRollBack();
  void SessionSetsAreRefusedInsideATransaction();
  void PreparedStatementsBindAndExecute();
  void PrepareReportsSyntaxErrorsEagerly();
  void NullSafety();

  TransportHarness harness_;
  tip_connection* conn_ = nullptr;
};

using CApiRemoteTest = tip::transports::OverTipd<CApiTest>;

#define CAPI_TEST(Name) TIP_TRANSPORT_TEST(CApiTest, CApiRemoteTest, Name)

CAPI_TEST(QueryAndMetadata) {
  tip_result* result = nullptr;
  ASSERT_EQ(tip_exec(conn_, "SELECT name, n, x, v FROM t ORDER BY name",
                     &result),
            0);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(tip_result_row_count(result), 2u);
  EXPECT_EQ(tip_result_column_count(result), 4u);
  EXPECT_STREQ(tip_result_column_name(result, 0), "name");
  EXPECT_STREQ(tip_result_column_type(result, 1), "int");
  EXPECT_STREQ(tip_result_column_type(result, 3), "element");
  EXPECT_STREQ(tip_result_text(result, 0, 0), "a");
  EXPECT_EQ(tip_result_int64(result, 0, 1), 1);
  EXPECT_DOUBLE_EQ(tip_result_double(result, 0, 2), 0.5);
  EXPECT_STREQ(tip_result_text(result, 0, 3), "{[1999-01-01, NOW]}");
  EXPECT_EQ(tip_result_is_null(result, 1, 1), 1);
  EXPECT_EQ(tip_result_is_null(result, 0, 1), 0);
  // Cached text pointers stay stable across repeated calls.
  const char* first = tip_result_text(result, 0, 3);
  EXPECT_EQ(first, tip_result_text(result, 0, 3));
  tip_result_free(result);
}

CAPI_TEST(ErrorsAreReported) {
  tip_result* result = reinterpret_cast<tip_result*>(0x1);
  EXPECT_EQ(tip_exec(conn_, "SELECT nosuch FROM t", &result), -1);
  EXPECT_EQ(result, nullptr);  // out param reset on failure
  EXPECT_NE(std::string(tip_last_error(conn_)).find("nosuch"),
            std::string::npos);
  // A successful call clears the error.
  Must("SELECT 1");
  EXPECT_STREQ(tip_last_error(conn_), "");
  EXPECT_EQ(tip_set_now(conn_, "not a date"), -1);
  EXPECT_NE(std::string(tip_last_error(conn_)).find("ParseError"),
            std::string::npos);
}

CAPI_TEST(NowOverrideChangesAnswers) {
  tip_result* result = nullptr;
  ASSERT_EQ(tip_exec(conn_,
                     "SELECT length(v) / '1'::Span FROM t "
                     "WHERE name = 'a'",
                     &result),
            0);
  const long long days_at_nov = tip_result_int64(result, 0, 0);
  tip_result_free(result);
  ASSERT_EQ(tip_set_now(conn_, "1999-12-15"), 0);
  ASSERT_EQ(tip_exec(conn_,
                     "SELECT length(v) / '1'::Span FROM t "
                     "WHERE name = 'a'",
                     &result),
            0);
  EXPECT_EQ(tip_result_int64(result, 0, 0) - days_at_nov, 30);
  tip_result_free(result);
  EXPECT_EQ(tip_clear_now(conn_), 0);
}

CAPI_TEST(DmlReportsAffectedRows) {
  tip_result* result = nullptr;
  ASSERT_EQ(tip_exec(conn_, "UPDATE t SET n = 9", &result), 0);
  EXPECT_EQ(tip_result_affected_rows(result), 2);
  EXPECT_EQ(tip_result_column_count(result), 0u);
  tip_result_free(result);
}

CAPI_TEST(TransactionsCommitAndRollBack) {
  EXPECT_EQ(tip_in_transaction(conn_), 0);
  ASSERT_EQ(tip_begin(conn_), 0) << tip_last_error(conn_);
  EXPECT_EQ(tip_in_transaction(conn_), 1);
  EXPECT_EQ(tip_begin(conn_), -1);  // no nesting
  EXPECT_NE(std::string(tip_last_error(conn_)).find("transaction"),
            std::string::npos);
  Must("INSERT INTO t VALUES ('c', 3, 1.5, NULL)");
  ASSERT_EQ(tip_rollback(conn_), 0) << tip_last_error(conn_);
  EXPECT_EQ(tip_in_transaction(conn_), 0);

  tip_result* result = nullptr;
  ASSERT_EQ(tip_exec(conn_, "SELECT count(*) FROM t", &result), 0);
  EXPECT_EQ(tip_result_int64(result, 0, 0), 2);  // insert rolled back
  tip_result_free(result);

  ASSERT_EQ(tip_begin(conn_), 0);
  Must("INSERT INTO t VALUES ('c', 3, 1.5, NULL)");
  ASSERT_EQ(tip_commit(conn_), 0) << tip_last_error(conn_);
  EXPECT_EQ(tip_in_transaction(conn_), 0);
  ASSERT_EQ(tip_exec(conn_, "SELECT count(*) FROM t", &result), 0);
  EXPECT_EQ(tip_result_int64(result, 0, 0), 3);
  tip_result_free(result);

  // Boundary calls without an open transaction are errors, and the
  // handles stay NULL-safe like the rest of the API.
  EXPECT_EQ(tip_commit(conn_), -1);
  EXPECT_EQ(tip_rollback(conn_), -1);
  EXPECT_EQ(tip_begin(nullptr), -1);
  EXPECT_EQ(tip_commit(nullptr), -1);
  EXPECT_EQ(tip_rollback(nullptr), -1);
  EXPECT_EQ(tip_in_transaction(nullptr), -1);
}

CAPI_TEST(SessionSetsAreRefusedInsideATransaction) {
  // A transaction pins NOW and brackets its WAL records under one mode,
  // so the session SETs that would move either are refused until it
  // ends, on a durable database behind either kind of handle.
  tip::transports::ScratchDir dir;
  TransportHarness durable;
  tip_connection* conn = Open(&durable, dir.path());
  ASSERT_NE(conn, nullptr);
  ASSERT_EQ(tip_begin(conn), 0) << tip_last_error(conn);
  EXPECT_EQ(tip_set_wal_mode(conn, "sync"), -1);
  EXPECT_NE(std::string(tip_last_error(conn))
                .find("not allowed inside a transaction"),
            std::string::npos)
      << tip_last_error(conn);
  EXPECT_EQ(tip_set_now(conn, "1999-12-15"), -1);
  EXPECT_NE(std::string(tip_last_error(conn))
                .find("not allowed inside a transaction"),
            std::string::npos)
      << tip_last_error(conn);
  EXPECT_EQ(tip_clear_now(conn), -1);
  EXPECT_EQ(tip_in_transaction(conn), 1);
  ASSERT_EQ(tip_commit(conn), 0) << tip_last_error(conn);

  tip_result* stats = nullptr;
  ASSERT_EQ(tip_exec(conn, "SELECT tip_wal_stats()", &stats), 0)
      << tip_last_error(conn);
  EXPECT_NE(std::string(tip_result_text(stats, 0, 0)).find("mode=group"),
            std::string::npos)
      << tip_result_text(stats, 0, 0);
  tip_result_free(stats);
  tip_close(conn);
}

CAPI_TEST(PreparedStatementsBindAndExecute) {
  tip_stmt* stmt = nullptr;
  ASSERT_EQ(tip_prepare(conn_, "SELECT n, x FROM t WHERE name = :who",
                        &stmt),
            0)
      << tip_last_error(conn_);
  ASSERT_NE(stmt, nullptr);

  ASSERT_EQ(tip_stmt_bind_text(stmt, "who", "a"), 0);
  tip_result* result = nullptr;
  ASSERT_EQ(tip_stmt_execute(stmt, &result), 0) << tip_last_error(conn_);
  ASSERT_EQ(tip_result_row_count(result), 1u);
  EXPECT_EQ(tip_result_int64(result, 0, 0), 1);
  EXPECT_DOUBLE_EQ(tip_result_double(result, 0, 1), 0.5);
  tip_result_free(result);

  // Rebind and re-execute the same handle.
  ASSERT_EQ(tip_stmt_bind_text(stmt, "who", "b"), 0);
  ASSERT_EQ(tip_stmt_execute(stmt, &result), 0);
  ASSERT_EQ(tip_result_row_count(result), 1u);
  EXPECT_EQ(tip_result_is_null(result, 0, 0), 1);
  tip_result_free(result);
  tip_stmt_close(stmt);

  // Numeric and NULL bindings through a computed projection.
  ASSERT_EQ(tip_prepare(conn_, "SELECT :i, :d, :nul", &stmt), 0);
  ASSERT_EQ(tip_stmt_bind_int(stmt, "i", 42), 0);
  ASSERT_EQ(tip_stmt_bind_double(stmt, "d", 2.5), 0);
  ASSERT_EQ(tip_stmt_bind_null(stmt, "nul"), 0);
  ASSERT_EQ(tip_stmt_execute(stmt, &result), 0) << tip_last_error(conn_);
  EXPECT_EQ(tip_result_int64(result, 0, 0), 42);
  EXPECT_DOUBLE_EQ(tip_result_double(result, 0, 1), 2.5);
  EXPECT_EQ(tip_result_is_null(result, 0, 2), 1);
  tip_result_free(result);

  // An unbound parameter fails the execution, not the process.
  ASSERT_EQ(tip_stmt_clear_bindings(stmt), 0);
  EXPECT_EQ(tip_stmt_execute(stmt, &result), -1);
  EXPECT_EQ(result, nullptr);
  EXPECT_NE(std::string(tip_last_error(conn_)).find(":"),
            std::string::npos);
  tip_stmt_close(stmt);
}

CAPI_TEST(PrepareReportsSyntaxErrorsEagerly) {
  tip_stmt* stmt = reinterpret_cast<tip_stmt*>(0x1);
  EXPECT_EQ(tip_prepare(conn_, "SELEC 1", &stmt), -1);
  EXPECT_EQ(stmt, nullptr);  // out param reset on failure
  EXPECT_NE(std::string(tip_last_error(conn_)).find("ParseError"),
            std::string::npos);

  // NULL safety, like the rest of the API.
  EXPECT_EQ(tip_prepare(nullptr, "SELECT 1", &stmt), -1);
  EXPECT_EQ(tip_prepare(conn_, nullptr, &stmt), -1);
  EXPECT_EQ(tip_prepare(conn_, "SELECT 1", nullptr), -1);
  EXPECT_EQ(tip_stmt_bind_int(nullptr, "x", 1), -1);
  EXPECT_EQ(tip_stmt_execute(nullptr, nullptr), -1);
  tip_stmt_close(nullptr);  // no-op, like free()
}

CAPI_TEST(NullSafety) {
  EXPECT_EQ(tip_exec(nullptr, "SELECT 1", nullptr), -1);
  EXPECT_EQ(tip_exec(conn_, nullptr, nullptr), -1);
  EXPECT_EQ(tip_set_now(nullptr, "1999-01-01"), -1);
  EXPECT_STREQ(tip_last_error(nullptr), "null connection");
  EXPECT_EQ(tip_result_row_count(nullptr), 0u);
  EXPECT_EQ(tip_result_text(nullptr, 0, 0), nullptr);
  EXPECT_EQ(tip_result_is_null(nullptr, 0, 0), 1);
  tip_result_free(nullptr);  // no-op, like free()

  tip_result* result = nullptr;
  ASSERT_EQ(tip_exec(conn_, "SELECT 1", &result), 0);
  EXPECT_EQ(tip_result_text(result, 5, 0), nullptr);  // out of range
  EXPECT_EQ(tip_result_column_name(result, 9), nullptr);
  EXPECT_EQ(tip_result_int64(result, 0, 9), 0);
  tip_result_free(result);
}

// Cases only tipd has: they share the fixture above, whose SetUp made
// table t and set NOW over tip_connect.

TEST_F(CApiRemoteTest, ConnectExecAndMetadataOverTheWire) {
  tip_result* result = nullptr;
  ASSERT_EQ(tip_exec(conn_, "SELECT name, n, v FROM t ORDER BY name",
                     &result),
            0)
      << tip_last_error(conn_);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(tip_result_row_count(result), 2u);
  EXPECT_EQ(tip_result_column_count(result), 3u);
  EXPECT_STREQ(tip_result_column_name(result, 0), "name");
  EXPECT_STREQ(tip_result_column_type(result, 1), "int");
  EXPECT_STREQ(tip_result_text(result, 0, 0), "a");
  EXPECT_EQ(tip_result_int64(result, 0, 1), 1);
  EXPECT_EQ(tip_result_is_null(result, 1, 1), 1);
  // The Element column survives the wire as its typed rendering.
  EXPECT_NE(std::string(tip_result_text(result, 0, 2)).find("1999-01-01"),
            std::string::npos);
  tip_result_free(result);

  // Errors carry the engine's status text into tip_last_error.
  EXPECT_EQ(tip_exec(conn_, "SELECT * FROM missing", nullptr), -1);
  EXPECT_NE(std::string(tip_last_error(conn_)).find("missing"),
            std::string::npos);
}

TEST_F(CApiRemoteTest, SessionStateAndTransactionsOverTheWire) {
  Must("CREATE TABLE p (id INT, valid Element)");
  Must("INSERT INTO p VALUES (1, '{[1990-01-01, 1991-01-01]}')");

  // SET NOW is session state on the server, reachable through the
  // same C call as embedded.
  ASSERT_EQ(tip_set_now(conn_, "1990-06-01"), 0) << tip_last_error(conn_);
  tip_result* result = nullptr;
  ASSERT_EQ(tip_exec(conn_,
                     "SELECT count(*) FROM p WHERE "
                     "contains(valid, transaction_time())",
                     &result),
            0);
  EXPECT_EQ(tip_result_int64(result, 0, 0), 1);
  tip_result_free(result);
  ASSERT_EQ(tip_clear_now(conn_), 0);

  // A transaction: begin, insert, rollback leaves the table unchanged.
  EXPECT_EQ(tip_in_transaction(conn_), 0);
  ASSERT_EQ(tip_begin(conn_), 0) << tip_last_error(conn_);
  EXPECT_EQ(tip_in_transaction(conn_), 1);
  Must("INSERT INTO p VALUES (2, NULL)");
  ASSERT_EQ(tip_rollback(conn_), 0);
  EXPECT_EQ(tip_in_transaction(conn_), 0);
  ASSERT_EQ(tip_exec(conn_, "SELECT count(*) FROM p", &result), 0);
  EXPECT_EQ(tip_result_int64(result, 0, 0), 1);
  tip_result_free(result);

  // And a committed one sticks — visible to the embedded side too.
  ASSERT_EQ(tip_begin(conn_), 0);
  Must("INSERT INTO p VALUES (3, NULL)");
  ASSERT_EQ(tip_commit(conn_), 0);
  tip::Result<tip::engine::ResultSet> embedded =
      harness_.db().Execute("SELECT count(*) FROM p");
  ASSERT_TRUE(embedded.ok());
  EXPECT_EQ(embedded->rows[0][0].int_value(), 2);
}

TEST_F(CApiRemoteTest, PreparedStatementsBindOverTheWire) {
  Must("CREATE TABLE w (id INT, who CHAR(8))");

  tip_stmt* stmt = nullptr;
  ASSERT_EQ(tip_prepare(conn_, "INSERT INTO w VALUES (:id, :who)", &stmt),
            0)
      << tip_last_error(conn_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(tip_stmt_bind_int(stmt, "id", i), 0);
    ASSERT_EQ(tip_stmt_bind_text(stmt, "who", i % 2 == 0 ? "even" : "odd"),
              0);
    ASSERT_EQ(tip_stmt_execute(stmt, nullptr), 0) << tip_last_error(conn_);
  }
  tip_stmt_close(stmt);

  ASSERT_EQ(tip_prepare(conn_, "SELECT count(*) FROM w WHERE who = :w",
                        &stmt),
            0);
  ASSERT_EQ(tip_stmt_bind_text(stmt, "w", "even"), 0);
  tip_result* result = nullptr;
  ASSERT_EQ(tip_stmt_execute(stmt, &result), 0) << tip_last_error(conn_);
  EXPECT_EQ(tip_result_int64(result, 0, 0), 2);
  tip_result_free(result);
  tip_stmt_close(stmt);

  // A bad prepare fails eagerly, same contract as embedded.
  stmt = reinterpret_cast<tip_stmt*>(0x1);
  EXPECT_EQ(tip_prepare(conn_, "SELEC 1", &stmt), -1);
  EXPECT_EQ(stmt, nullptr);
}

TEST_F(CApiRemoteTest, ConnectValidatesItsArguments) {
  EXPECT_EQ(tip_connect(nullptr, 1234), nullptr);
  EXPECT_EQ(tip_connect("127.0.0.1", 0), nullptr);
  EXPECT_EQ(tip_connect("127.0.0.1", -1), nullptr);
  // A refused port yields NULL, not a half-open handle.
  EXPECT_EQ(tip_connect("127.0.0.1", 1), nullptr);
}

}  // namespace
