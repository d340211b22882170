#include <gtest/gtest.h>

#include "engine/database.h"

namespace tip::engine {
namespace {

/// The second wave of SQL surface: LIKE, scalar and IN subqueries, and
/// compound selects (UNION / UNION ALL / INTERSECT / EXCEPT).
class SqlFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE emp (name CHAR(20), dept CHAR(20), salary INT)");
    Exec("INSERT INTO emp VALUES "
         "('alice', 'eng', 100), ('bob', 'eng', 80), "
         "('carol', 'sales', 120), ('dave', 'sales', 80), "
         "('erin', 'hr', 90)");
    Exec("CREATE TABLE dept (dept CHAR(20), floor INT)");
    Exec("INSERT INTO dept VALUES ('eng', 3), ('sales', 1), ('hr', 2)");
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

  std::string Flat(const ResultSet& r) {
    std::string out;
    for (size_t i = 0; i < r.rows.size(); ++i) {
      if (i > 0) out += ";";
      for (size_t j = 0; j < r.rows[i].size(); ++j) {
        if (j > 0) out += ",";
        out += db_.types().Format(r.rows[i][j]);
      }
    }
    return out;
  }

  Database db_;
};

TEST_F(SqlFeaturesTest, LikePatterns) {
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE name LIKE 'a%' ")),
            "alice");
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE name LIKE '%e' "
                      "ORDER BY name")),
            "alice;dave");
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE name LIKE '_ob'")),
            "bob");
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE name NOT LIKE '%a%' "
                      "ORDER BY name")),
            "bob;erin");
  EXPECT_EQ(Flat(Exec("SELECT 'abc' LIKE '%', 'abc' LIKE 'a_c', "
                      "'abc' LIKE 'ab', '' LIKE '%', '' LIKE '_'")),
            "true,true,false,true,false");
  EXPECT_EQ(Flat(Exec("SELECT 'aXbXc' LIKE '%X%X%'")), "true");
  // NULL propagates.
  EXPECT_EQ(Flat(Exec("SELECT NULL LIKE 'x'")), "NULL");
}

TEST_F(SqlFeaturesTest, UncorrelatedScalarSubquery) {
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE salary = "
                      "(SELECT max(salary) FROM emp)")),
            "carol");
  EXPECT_EQ(Flat(Exec("SELECT (SELECT count(*) FROM dept) + 1")), "4");
  // Empty subquery yields NULL.
  EXPECT_EQ(Flat(Exec("SELECT (SELECT floor FROM dept WHERE "
                      "dept = 'legal')")),
            "NULL");
}

TEST_F(SqlFeaturesTest, ScalarSubqueryCardinalityChecked) {
  EXPECT_EQ(ExecErr("SELECT (SELECT salary FROM emp)").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExecErr("SELECT (SELECT name, salary FROM emp LIMIT 1)")
                .code(),
            StatusCode::kTypeError);
}

TEST_F(SqlFeaturesTest, CorrelatedScalarSubquery) {
  // Each employee against their department's floor.
  EXPECT_EQ(Flat(Exec("SELECT name, (SELECT d.floor FROM dept d WHERE "
                      "d.dept = emp.dept) FROM emp ORDER BY name")),
            "alice,3;bob,3;carol,1;dave,1;erin,2");
  // Department's top earner via correlated max in WHERE.
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp e WHERE salary = "
                      "(SELECT max(x.salary) FROM emp x WHERE "
                      "x.dept = e.dept) ORDER BY name")),
            "alice;carol;erin");
}

TEST_F(SqlFeaturesTest, InSubquery) {
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE dept IN "
                      "(SELECT dept FROM dept WHERE floor > 1) "
                      "ORDER BY name")),
            "alice;bob;erin");
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE dept NOT IN "
                      "(SELECT dept FROM dept WHERE floor > 1) "
                      "ORDER BY name")),
            "carol;dave");
}

TEST_F(SqlFeaturesTest, InSubqueryThreeValuedLogic) {
  Exec("CREATE TABLE n (x INT)");
  Exec("INSERT INTO n VALUES (1), (NULL)");
  // 2 NOT IN (1, NULL) is NULL (not true), so no row qualifies.
  EXPECT_EQ(Flat(Exec("SELECT count(*) FROM emp WHERE 2 NOT IN "
                      "(SELECT x FROM n)")),
            "0");
  EXPECT_EQ(Flat(Exec("SELECT count(*) FROM emp WHERE 1 IN "
                      "(SELECT x FROM n)")),
            "5");
  // Empty subquery: NOT IN is true for everything.
  EXPECT_EQ(Flat(Exec("SELECT count(*) FROM emp WHERE 2 NOT IN "
                      "(SELECT x FROM n WHERE x > 100)")),
            "5");
}

TEST_F(SqlFeaturesTest, UnionDistinctAndAll) {
  EXPECT_EQ(Flat(Exec("SELECT dept FROM emp UNION SELECT dept FROM dept "
                      "ORDER BY dept")),
            "eng;hr;sales");
  EXPECT_EQ(Exec("SELECT dept FROM emp UNION ALL SELECT dept FROM dept")
                .row_count(),
            8u);
  EXPECT_EQ(Flat(Exec("SELECT 1 UNION SELECT 2 UNION SELECT 1 "
                      "ORDER BY 1")),
            "1;2");
}

TEST_F(SqlFeaturesTest, IntersectAndExcept) {
  Exec("CREATE TABLE a (x INT)");
  Exec("INSERT INTO a VALUES (1), (2), (2), (3)");
  Exec("CREATE TABLE b (x INT)");
  Exec("INSERT INTO b VALUES (2), (3), (4)");
  EXPECT_EQ(Flat(Exec("SELECT x FROM a INTERSECT SELECT x FROM b "
                      "ORDER BY x")),
            "2;3");
  EXPECT_EQ(Flat(Exec("SELECT x FROM a EXCEPT SELECT x FROM b")), "1");
  EXPECT_EQ(Flat(Exec("SELECT x FROM b EXCEPT SELECT x FROM a")), "4");
  // Left-to-right chaining: (a except b) union (b except a).
  EXPECT_EQ(Flat(Exec("SELECT x FROM a EXCEPT SELECT x FROM b UNION "
                      "SELECT x FROM b EXCEPT SELECT x FROM a "
                      "ORDER BY x")),
            "4");
}

TEST_F(SqlFeaturesTest, CompoundOrderLimitApplyToWhole) {
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE dept = 'eng' UNION ALL "
                      "SELECT name FROM emp WHERE dept = 'hr' "
                      "ORDER BY name DESC LIMIT 2")),
            "erin;bob");
  EXPECT_EQ(Flat(Exec("SELECT name AS n FROM emp WHERE salary > 100 "
                      "UNION SELECT dept FROM dept ORDER BY n LIMIT 3")),
            "carol;eng;hr");
}

TEST_F(SqlFeaturesTest, CompoundErrors) {
  EXPECT_EQ(ExecErr("SELECT name, salary FROM emp UNION "
                    "SELECT dept FROM dept").code(),
            StatusCode::kTypeError);
  EXPECT_EQ(ExecErr("SELECT salary FROM emp UNION "
                    "SELECT dept FROM dept").code(),
            StatusCode::kTypeError);
  EXPECT_EQ(ExecErr("SELECT name FROM emp UNION SELECT dept FROM dept "
                    "ORDER BY salary").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SqlFeaturesTest, CompoundInsideExistsAndAggregates) {
  // A compound subquery inside EXISTS.
  EXPECT_EQ(Flat(Exec("SELECT count(*) FROM emp WHERE EXISTS "
                      "(SELECT dept FROM dept WHERE floor > 10 UNION "
                      "SELECT dept FROM dept WHERE floor = 3)")),
            "5");
  // Aggregates inside compound members.
  EXPECT_EQ(Flat(Exec("SELECT max(salary) FROM emp UNION ALL "
                      "SELECT min(salary) FROM emp ORDER BY 1")),
            "80;120");
}

TEST_F(SqlFeaturesTest, DerivedTables) {
  EXPECT_EQ(Flat(Exec("SELECT t.name FROM (SELECT name, salary FROM emp "
                      "WHERE dept = 'eng') t WHERE t.salary > 90")),
            "alice");
  // Aggregation over a derived table (the classic two-level pattern).
  EXPECT_EQ(Flat(Exec("SELECT max(s.total) FROM (SELECT dept, "
                      "sum(salary) AS total FROM emp GROUP BY dept) s")),
            "200");
  // Derived table joined with a base table.
  EXPECT_EQ(Flat(Exec("SELECT d.floor, t.total FROM (SELECT dept, "
                      "sum(salary) AS total FROM emp GROUP BY dept) t, "
                      "dept d WHERE d.dept = t.dept ORDER BY d.floor")),
            "1,200;2,90;3,180");
  // Derived table as a join inner side (re-opened per outer row).
  Exec("SET hash_join off");
  EXPECT_EQ(Flat(Exec("SELECT d.floor, t.total FROM dept d, (SELECT "
                      "dept, sum(salary) AS total FROM emp GROUP BY "
                      "dept) t WHERE d.dept = t.dept ORDER BY d.floor")),
            "1,200;2,90;3,180");
  Exec("SET hash_join on");
  // Compound core inside a derived table.
  EXPECT_EQ(Flat(Exec("SELECT count(*) FROM (SELECT dept FROM emp UNION "
                      "SELECT dept FROM dept) u")),
            "3");
}

TEST_F(SqlFeaturesTest, DerivedTableErrors) {
  EXPECT_FALSE(db_.Execute("SELECT * FROM (SELECT 1)").ok());  // no alias
  // Derived tables cannot see FROM siblings.
  EXPECT_EQ(ExecErr("SELECT * FROM emp e, (SELECT d.floor FROM dept d "
                    "WHERE d.dept = e.dept) t").code(),
            StatusCode::kNotFound);
}

TEST_F(SqlFeaturesTest, ExecuteScriptRunsStatementsInOrder) {
  Result<ResultSet> last = db_.ExecuteScript(
      "CREATE TABLE s (x INT);\n"
      "INSERT INTO s VALUES (1), (2);\n"
      "-- a comment between statements\n"
      "UPDATE s SET x = x * 10 WHERE x = 2;\n"
      "SELECT sum(x) FROM s;");
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(Flat(*last), "21");
  // Semicolons inside string literals do not split statements.
  last = db_.ExecuteScript("SELECT 'a;b' ;");
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(Flat(*last), "a;b");
  last = db_.ExecuteScript("SELECT 'a;b';");
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(Flat(*last), "a;b");
  // Quotes and semicolons inside comments neither open a string nor
  // split a statement, and a trailing comment is not a statement.
  last = db_.ExecuteScript(
      "INSERT INTO s VALUES (3);\n"
      "-- don't split here\n"
      "INSERT INTO s VALUES (4);\n"
      "SELECT sum(x) FROM s;");
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(Flat(*last), "28");
  last = db_.ExecuteScript(
      "INSERT INTO s VALUES (5); -- one; two\n"
      "SELECT sum(x) FROM s;");
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(Flat(*last), "33");
  last = db_.ExecuteScript("SELECT 1;\n-- done\n");
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(Flat(*last), "1");
  // First error stops the script.
  EXPECT_FALSE(db_.ExecuteScript("SELECT 1; SELECT nosuch; "
                                 "CREATE TABLE never (x INT);").ok());
  EXPECT_FALSE(db_.catalog().GetTable("never").ok());
  EXPECT_FALSE(db_.ExecuteScript("  ;;  ").ok());
}

TEST_F(SqlFeaturesTest, GroupedSubqueriesRejected) {
  EXPECT_EQ(ExecErr("SELECT dept, (SELECT 1) FROM emp GROUP BY dept")
                .code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(ExecErr("SELECT dept FROM emp GROUP BY dept HAVING "
                    "EXISTS (SELECT 1)").code(),
            StatusCode::kNotImplemented);
}

TEST_F(SqlFeaturesTest, SubqueryInUngroupedSelectList) {
  EXPECT_EQ(Flat(Exec("SELECT name, EXISTS (SELECT d.dept FROM dept d "
                      "WHERE d.dept = emp.dept AND d.floor > 2) "
                      "FROM emp ORDER BY name LIMIT 3")),
            "alice,true;bob,true;carol,false");
}

}  // namespace
}  // namespace tip::engine
