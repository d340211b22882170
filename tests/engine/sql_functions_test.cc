#include <gtest/gtest.h>

#include "datablade/datablade.h"
#include "engine/database.h"

namespace tip::engine {
namespace {

/// CREATE FUNCTION — the SPL-flavoured stored routines. A body is a SQL
/// expression over the declared parameters (and, through subqueries,
/// the database); created functions participate in overload resolution
/// exactly like DataBlade routines.
class SqlFunctionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datablade::Install(&db_).ok());
    Exec("SET NOW '1999-11-15'");
  }

  ResultSet Exec(std::string_view sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  Status ExecErr(std::string_view sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_FALSE(r.ok()) << sql << " unexpectedly succeeded";
    return r.ok() ? Status::OK() : r.status();
  }

  std::string One(std::string_view sql) {
    ResultSet r = Exec(sql);
    if (r.rows.size() != 1 || r.rows[0].size() != 1) return "<shape>";
    return db_.types().Format(r.rows[0][0]);
  }

  Database db_;
};

TEST_F(SqlFunctionsTest, ScalarFunctionOverInts) {
  Exec("CREATE FUNCTION double_it(x INT) RETURNS INT AS 'x * 2'");
  EXPECT_EQ(One("SELECT double_it(21)"), "42");
  EXPECT_EQ(One("SELECT double_it(double_it(1))"), "4");
  // NULL in, NULL out (strict by default).
  EXPECT_EQ(One("SELECT double_it(NULL)"), "NULL");
}

TEST_F(SqlFunctionsTest, TemporalFunctionBody) {
  // Age in weeks at the start of a prescription — the paper's Q1
  // predicate packaged as a routine.
  Exec("CREATE FUNCTION age_weeks_at(dob Chronon, v Element) RETURNS INT "
       "AS '(start(v) - dob) / ''7 00:00:00''::Span'");
  EXPECT_EQ(One("SELECT age_weeks_at('1999-09-01'::Chronon, "
                "'{[1999-09-10, 1999-09-20]}'::Element)"),
            "1");
  Exec("CREATE TABLE rx (patient CHAR(20), patientdob Chronon, "
       "drug CHAR(20), valid Element)");
  Exec("INSERT INTO rx VALUES "
       "('babyjane', '1999-09-01', 'tylenol', "
       "'{[1999-09-10, 1999-09-20]}'), "
       "('showbiz', '1955-04-19', 'tylenol', "
       "'{[1999-08-01, 1999-08-05]}')");
  ResultSet r = Exec("SELECT patient FROM rx WHERE drug = 'tylenol' AND "
                     "age_weeks_at(patientdob, valid) < 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "babyjane");
}

TEST_F(SqlFunctionsTest, BodyMaySubquery) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (10), (20)");
  Exec("CREATE FUNCTION above_avg(x INT) RETURNS BOOLEAN AS "
       "'x > (SELECT avg(t.x) FROM t)'");
  EXPECT_EQ(One("SELECT above_avg(16)"), "true");
  EXPECT_EQ(One("SELECT above_avg(14)"), "false");
  // The body re-binds per call, so it sees later data changes.
  Exec("INSERT INTO t VALUES (100)");
  EXPECT_EQ(One("SELECT above_avg(16)"), "false");
}

TEST_F(SqlFunctionsTest, OverloadsWithDataBladeRoutines) {
  // Same name as a TIP routine, different signature: both callable.
  Exec("CREATE FUNCTION duration(x INT) RETURNS Span AS "
       "'x * ''1''::Span'");
  EXPECT_EQ(One("SELECT duration(3)::char"), "3");
  EXPECT_EQ(One("SELECT duration('[1999-01-01, 1999-01-02]'::Period)"
                "::char"),
            "1 00:00:01");
}

TEST_F(SqlFunctionsTest, ImplicitCastsApplyToArguments) {
  Exec("CREATE FUNCTION span_hours(s Span) RETURNS INT AS "
       "'s / ''0 01:00:00''::Span'");
  // String literal -> Span through the implicit cast.
  EXPECT_EQ(One("SELECT span_hours('1 12:00:00')"), "36");
}

TEST_F(SqlFunctionsTest, CreationValidatesEagerly) {
  EXPECT_EQ(ExecErr("CREATE FUNCTION bad(x INT) RETURNS INT AS 'y + 1'")
                .code(),
            StatusCode::kNotFound);  // unknown identifier y
  EXPECT_EQ(ExecErr("CREATE FUNCTION bad(x INT) RETURNS Chronon AS "
                    "'x + 1'").code(),
            StatusCode::kTypeError);  // int does not coerce to chronon
  EXPECT_EQ(ExecErr("CREATE FUNCTION bad(x NOSUCH) RETURNS INT AS 'x'")
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ExecErr("CREATE FUNCTION bad(x INT) RETURNS INT AS 'x +'")
                .code(),
            StatusCode::kParseError);
}

TEST_F(SqlFunctionsTest, DuplicateSignatureRejected) {
  Exec("CREATE FUNCTION f(x INT) RETURNS INT AS 'x'");
  EXPECT_EQ(ExecErr("CREATE FUNCTION f(x INT) RETURNS INT AS 'x + 1'")
                .code(),
            StatusCode::kAlreadyExists);
  // A different signature under the same name is an overload.
  Exec("CREATE FUNCTION f(x INT, y INT) RETURNS INT AS 'x + y'");
  EXPECT_EQ(One("SELECT f(1) + f(1, 2)"), "4");
}

TEST_F(SqlFunctionsTest, DropFunction) {
  Exec("CREATE FUNCTION gone(x INT) RETURNS INT AS 'x'");
  EXPECT_EQ(One("SELECT gone(5)"), "5");
  Exec("DROP FUNCTION gone");
  EXPECT_EQ(ExecErr("SELECT gone(5)").code(), StatusCode::kNotFound);
  EXPECT_EQ(ExecErr("DROP FUNCTION gone").code(), StatusCode::kNotFound);
  // Builtins and DataBlade routines are protected.
  EXPECT_EQ(ExecErr("DROP FUNCTION length").code(), StatusCode::kNotFound);
  EXPECT_EQ(One("SELECT length('abc')"), "3");
}

TEST_F(SqlFunctionsTest, DropFunctionKeepsDataBladeRoutinesOfTheSameName) {
  Exec("CREATE FUNCTION length(x INT) RETURNS INT AS 'x'");
  EXPECT_EQ(One("SELECT length(7)"), "7");
  Exec("DROP FUNCTION length");
  // Only the overload CREATE FUNCTION made is gone.
  EXPECT_EQ(ExecErr("SELECT length(7)").code(), StatusCode::kTypeError);
  EXPECT_EQ(One("SELECT length('abc')"), "3");
  EXPECT_EQ(One("SELECT length('{[1999-01-01, 1999-01-03]}'::Element)"
                "::char"),
            "2 00:00:01");
}

TEST_F(SqlFunctionsTest, UsableInsideAggregatedQueries) {
  Exec("CREATE TABLE t (k CHAR(4), v Element)");
  Exec("INSERT INTO t VALUES "
       "('a', '{[1999-01-01, 1999-01-10]}'), "
       "('a', '{[1999-03-01, 1999-03-02]}'), "
       "('b', '{[1999-06-01, 1999-06-03]}')");
  Exec("CREATE FUNCTION days_of(v Element) RETURNS INT AS "
       "'length(v) / ''1''::Span'");
  // [01-01,01-10] covers 9 whole days (+1s, truncated); [03-01,03-02]
  // covers 1: 9 + 1.
  EXPECT_EQ(One("SELECT sum(days_of(v)) FROM t WHERE k = 'a'"), "10");
}

// A call wider than the evaluator's inline argument array (four), on
// every row, with column arguments: the arguments reach the function
// body as a row built from the borrowed values.
TEST_F(SqlFunctionsTest, SixParameterFunctionOverColumns) {
  Exec("CREATE FUNCTION pick(p CHAR, q CHAR, v Element, "
       "w Element, n INT, m INT) RETURNS INT AS "
       "'CASE WHEN overlaps(v, w) THEN length(p) * 100 + n "
       "ELSE length(q) * 100 + m END'");
  Exec("CREATE TABLE t (id INT, p CHAR(20), q CHAR(20), v Element, "
       "w Element, n INT, m INT)");
  Exec("INSERT INTO t VALUES "
       "(1, 'ab', 'xyz', '{[1999-01-01, 1999-01-31]}', "
       "'{[1999-01-15, 1999-02-15]}', 1, 2), "
       "(2, 'ab', 'xyz', '{[1999-01-01, 1999-01-31]}', "
       "'{[1999-03-01, NOW]}', 3, 4), "
       "(3, 'abcd', NULL, '{[1999-01-01, NOW]}', "
       "'{[1999-11-01, 1999-11-30]}', 5, 6), "
       "(4, 'a', 'b', '{}', '{}', NULL, 7)");
  ResultSet r = Exec("SELECT id, pick(p, q, v, w, n, m), "
                     "pick(q, p, w, v, m, n + id) FROM t ORDER BY id");
  ASSERT_EQ(r.rows.size(), 4u);
  const char* expected[4][2] = {
      {"201", "302"}, {"304", "205"}, {"NULL", "NULL"}, {"NULL", "NULL"}};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(db_.types().Format(r.rows[i][1]), expected[i][0]) << i;
    EXPECT_EQ(db_.types().Format(r.rows[i][2]), expected[i][1]) << i;
  }
}

}  // namespace
}  // namespace tip::engine
