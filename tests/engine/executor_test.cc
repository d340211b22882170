#include <gtest/gtest.h>

#include <string>

#include "engine/database.h"

namespace tip::engine {
namespace {

/// SQL end-to-end tests against the plain engine (no DataBlade): the
/// relational substrate must be a usable little SQL database on its own.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE emp (name CHAR(20), dept CHAR(20), salary INT, "
         "bonus DOUBLE)");
    Exec("INSERT INTO emp VALUES "
         "('alice', 'eng', 100, 1.5), "
         "('bob', 'eng', 80, 2.0), "
         "('carol', 'sales', 120, 0.5), "
         "('dave', 'sales', 80, NULL), "
         "('erin', 'hr', 90, 1.0)");
    Exec("CREATE TABLE dept (dept CHAR(20), floor INT)");
    Exec("INSERT INTO dept VALUES ('eng', 3), ('sales', 1), ('hr', 2), "
         "('legal', 9)");
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

  // Renders a result as "a,b;c,d" for terse comparisons.
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

TEST_F(ExecutorTest, SelectWithoutFrom) {
  EXPECT_EQ(Flat(Exec("SELECT 1 + 2 * 3, 'x' || 'y', true")), "7,xy,true");
}

TEST_F(ExecutorTest, ProjectionAndFilter) {
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE salary > 90 "
                      "ORDER BY name")),
            "alice;carol");
  EXPECT_EQ(Flat(Exec("SELECT name, salary * 2 AS s2 FROM emp "
                      "WHERE dept = 'hr'")),
            "erin,180");
}

TEST_F(ExecutorTest, WhereWithNullIsReject) {
  // dave's bonus is NULL: comparison yields NULL, row filtered out.
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE bonus > 0.1 "
                      "ORDER BY name")),
            "alice;bob;carol;erin");
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE bonus IS NULL")), "dave");
  EXPECT_EQ(Flat(Exec("SELECT count(*) FROM emp WHERE bonus IS NOT NULL")),
            "4");
}

TEST_F(ExecutorTest, OrderByVariants) {
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp ORDER BY salary DESC, name "
                      "LIMIT 3")),
            "carol;alice;erin");
  // Positional and aliased sort keys.
  EXPECT_EQ(Flat(Exec("SELECT name, salary AS s FROM emp ORDER BY 2 DESC, "
                      "1 LIMIT 2")),
            "carol,120;alice,100");
  EXPECT_EQ(Flat(Exec("SELECT name, salary AS s FROM emp ORDER BY s, name "
                      "LIMIT 2")),
            "bob,80;dave,80");
  // Hidden sort key (expression not in the select list).
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp ORDER BY salary + 0, name "
                      "LIMIT 2")),
            "bob;dave");
}

TEST_F(ExecutorTest, OrderByNullsLast) {
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp ORDER BY bonus, name")),
            "carol;erin;alice;bob;dave");
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp ORDER BY bonus DESC, name")),
            "bob;alice;erin;carol;dave");
}

TEST_F(ExecutorTest, LimitOffset) {
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp ORDER BY name LIMIT 2 "
                      "OFFSET 1")),
            "bob;carol");
  EXPECT_EQ(Exec("SELECT name FROM emp LIMIT 0").row_count(), 0u);
}

TEST_F(ExecutorTest, DistinctRows) {
  EXPECT_EQ(Flat(Exec("SELECT DISTINCT dept FROM emp ORDER BY dept")),
            "eng;hr;sales");
  EXPECT_EQ(Exec("SELECT DISTINCT salary FROM emp").row_count(), 4u);
}

TEST_F(ExecutorTest, CrossAndEquiJoins) {
  EXPECT_EQ(Exec("SELECT * FROM emp, dept").row_count(), 20u);
  EXPECT_EQ(Flat(Exec("SELECT e.name, d.floor FROM emp e, dept d "
                      "WHERE e.dept = d.dept AND d.floor > 1 "
                      "ORDER BY e.name")),
            "alice,3;bob,3;erin,2");
  // JOIN ... ON spelling.
  EXPECT_EQ(Exec("SELECT e.name FROM emp e JOIN dept d ON e.dept = d.dept")
                .row_count(),
            5u);
}

TEST_F(ExecutorTest, HashJoinAndNestedLoopAgree) {
  const char* sql =
      "SELECT e.name, d.floor FROM emp e, dept d WHERE e.dept = d.dept "
      "ORDER BY e.name";
  std::string with_hash = Flat(Exec(sql));
  Exec("SET hash_join off");
  std::string without_hash = Flat(Exec(sql));
  Exec("SET hash_join on");
  EXPECT_EQ(with_hash, without_hash);
  EXPECT_EQ(with_hash, "alice,3;bob,3;carol,1;dave,1;erin,2");
}

TEST_F(ExecutorTest, ExplainShowsJoinStrategy) {
  ResultSet with_hash = Exec(
      "EXPLAIN SELECT * FROM emp e, dept d WHERE e.dept = d.dept");
  EXPECT_NE(Flat(with_hash).find("HashJoin"), std::string::npos);
  Exec("SET hash_join off");
  ResultSet without_hash = Exec(
      "EXPLAIN SELECT * FROM emp e, dept d WHERE e.dept = d.dept");
  EXPECT_NE(Flat(without_hash).find("NestedLoopJoin"), std::string::npos);
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  Exec("CREATE TABLE proj (dept CHAR(20), pname CHAR(20))");
  Exec("INSERT INTO proj VALUES ('eng', 'tip'), ('sales', 'crm'), "
       "('eng', 'db')");
  EXPECT_EQ(Flat(Exec("SELECT e.name, p.pname FROM emp e, dept d, proj p "
                      "WHERE e.dept = d.dept AND d.dept = p.dept "
                      "AND e.salary > 90 ORDER BY e.name, p.pname")),
            "alice,db;alice,tip;carol,crm");
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  EXPECT_EQ(Flat(Exec("SELECT dept, count(*), sum(salary), min(name), "
                      "max(salary) FROM emp GROUP BY dept ORDER BY dept")),
            "eng,2,180,alice,100;hr,1,90,erin,90;sales,2,200,carol,120");
}

TEST_F(ExecutorTest, GlobalAggregatesEmptyInput) {
  EXPECT_EQ(Flat(Exec("SELECT count(*), sum(salary) FROM emp "
                      "WHERE salary > 1000")),
            "0,NULL");
}

// A global aggregate (no GROUP BY) gives the same row through the
// serial AggregateNode (a cap of 1) as through the morsel operator (a
// cap of 4): one row for empty input, for input whose values are all
// NULL, and for ordinary input.
TEST_F(ExecutorTest, GlobalAggregateSerialAndParallelAgree) {
  const struct {
    std::string sql;
    std::string want;
  } cases[] = {
      {"SELECT count(*), sum(salary), min(name) FROM emp "
       "WHERE salary > 1000",
       "0,NULL,NULL"},
      {"SELECT count(*), count(bonus), sum(bonus), max(bonus) FROM emp "
       "WHERE bonus IS NULL",
       "1,0,NULL,NULL"},
      {"SELECT count(*), count(bonus), sum(salary), min(name), "
       "max(salary) FROM emp",
       "5,4,470,alice,120"},
  };
  for (const char* cap : {"1", "4"}) {
    Exec(std::string("SET parallel_workers ") + cap);
    for (const auto& c : cases) {
      EXPECT_EQ(Flat(Exec(c.sql)), c.want) << c.sql << " at cap " << cap;
    }
  }
  Exec("SET parallel_workers 1");
  const std::string plan = Flat(Exec("EXPLAIN " + cases[2].sql));
  EXPECT_NE(plan.find("HashAggregate"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Parallel"), std::string::npos) << plan;
}

TEST_F(ExecutorTest, AggregateNullHandling) {
  // count(bonus) skips NULLs; avg over non-null values only.
  EXPECT_EQ(Flat(Exec("SELECT count(*), count(bonus) FROM emp")), "5,4");
  EXPECT_EQ(Flat(Exec("SELECT avg(bonus) FROM emp")), "1.25");
}

TEST_F(ExecutorTest, HavingFiltersGroups) {
  EXPECT_EQ(Flat(Exec("SELECT dept, count(*) FROM emp GROUP BY dept "
                      "HAVING count(*) > 1 ORDER BY dept")),
            "eng,2;sales,2");
  EXPECT_EQ(Flat(Exec("SELECT dept FROM emp GROUP BY dept "
                      "HAVING sum(salary) = 90")),
            "hr");
}

TEST_F(ExecutorTest, GroupByExpressionMatching) {
  EXPECT_EQ(Flat(Exec("SELECT salary / 100, count(*) FROM emp "
                      "GROUP BY salary / 100 ORDER BY 1")),
            "0,3;1,2");
}

TEST_F(ExecutorTest, AggregateInsideExpression) {
  EXPECT_EQ(Flat(Exec("SELECT sum(salary) / count(*) FROM emp")), "94");
}

TEST_F(ExecutorTest, GroupingErrors) {
  EXPECT_EQ(ExecErr("SELECT name FROM emp GROUP BY dept").code(),
            StatusCode::kTypeError);
  EXPECT_EQ(ExecErr("SELECT dept FROM emp WHERE count(*) > 1").code(),
            StatusCode::kTypeError);
  EXPECT_EQ(ExecErr("SELECT sum(count(*)) FROM emp").code(),
            StatusCode::kTypeError);
  EXPECT_EQ(ExecErr("SELECT name FROM emp HAVING salary > 1").code(),
            StatusCode::kTypeError);
}

TEST_F(ExecutorTest, CorrelatedExists) {
  // Employees in departments that exist in dept.
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE EXISTS "
                      "(SELECT d.dept FROM dept d WHERE d.dept = emp.dept) "
                      "ORDER BY name")),
            "alice;bob;carol;dave;erin");
  // Departments with no employee: NOT EXISTS.
  EXPECT_EQ(Flat(Exec("SELECT d.dept FROM dept d WHERE NOT EXISTS "
                      "(SELECT e.name FROM emp e WHERE e.dept = d.dept)")),
            "legal");
}

TEST_F(ExecutorTest, NestedExists) {
  // Employees whose department hosts the highest-paid employee:
  // e such that no other emp in a department that exists earns more.
  EXPECT_EQ(
      Flat(Exec("SELECT e.name FROM emp e WHERE NOT EXISTS "
                "(SELECT x.name FROM emp x WHERE x.salary > e.salary AND "
                "EXISTS (SELECT d.dept FROM dept d WHERE "
                "d.dept = x.dept)) ORDER BY e.name")),
      "carol");
}

TEST_F(ExecutorTest, BetweenInCase) {
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE salary BETWEEN 80 AND 90 "
                      "ORDER BY name")),
            "bob;dave;erin");
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE salary NOT BETWEEN 80 "
                      "AND 90 ORDER BY name")),
            "alice;carol");
  EXPECT_EQ(Flat(Exec("SELECT name FROM emp WHERE dept IN ('hr', 'sales') "
                      "ORDER BY name")),
            "carol;dave;erin");
  EXPECT_EQ(Flat(Exec("SELECT CASE WHEN salary >= 100 THEN 'high' "
                      "ELSE 'low' END, count(*) FROM emp GROUP BY "
                      "CASE WHEN salary >= 100 THEN 'high' ELSE 'low' END "
                      "ORDER BY 1")),
            "high,2;low,3");
}

TEST_F(ExecutorTest, CaseWithoutElseYieldsNull) {
  EXPECT_EQ(Flat(Exec("SELECT CASE WHEN false THEN 1 END")), "NULL");
}

TEST_F(ExecutorTest, UpdateAndDelete) {
  ResultSet updated = Exec("UPDATE emp SET salary = salary + 10 "
                           "WHERE dept = 'eng'");
  EXPECT_EQ(updated.affected_rows, 2);
  EXPECT_EQ(Flat(Exec("SELECT salary FROM emp WHERE name = 'alice'")),
            "110");
  ResultSet deleted = Exec("DELETE FROM emp WHERE salary < 85");
  EXPECT_EQ(deleted.affected_rows, 1);  // dave (80); bob now 90
  EXPECT_EQ(Exec("SELECT * FROM emp").row_count(), 4u);
  // Self-referencing update reads the pre-update row snapshot.
  Exec("UPDATE emp SET salary = salary * 2, bonus = 0.0");
  EXPECT_EQ(Flat(Exec("SELECT sum(salary) FROM emp")),
            "820");  // (110+90+120+90)*2
}

TEST_F(ExecutorTest, InsertWithColumnListAndDefaults) {
  Exec("INSERT INTO emp (name, salary) VALUES ('zoe', 70)");
  EXPECT_EQ(Flat(Exec("SELECT name, dept, salary, bonus FROM emp "
                      "WHERE name = 'zoe'")),
            "zoe,NULL,70,NULL");
  EXPECT_EQ(ExecErr("INSERT INTO emp (name) VALUES (1, 2)").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExecErr("INSERT INTO emp (nosuch) VALUES (1)").code(),
            StatusCode::kNotFound);
}

TEST_F(ExecutorTest, InsertCoercesTypes) {
  // INT literal into DOUBLE column through the implicit widening cast.
  Exec("INSERT INTO emp VALUES ('frank', 'eng', 50, 2)");
  EXPECT_EQ(Flat(Exec("SELECT bonus FROM emp WHERE name = 'frank'")), "2");
  // String into INT column has no implicit cast.
  EXPECT_EQ(ExecErr("INSERT INTO emp VALUES ('gina', 'hr', 'lots', 1.0)")
                .code(),
            StatusCode::kTypeError);
}

TEST_F(ExecutorTest, DdlLifecycleAndErrors) {
  Exec("CREATE TABLE tmp (x INT)");
  EXPECT_EQ(ExecErr("CREATE TABLE tmp (x INT)").code(),
            StatusCode::kAlreadyExists);
  Exec("DROP TABLE tmp");
  EXPECT_EQ(ExecErr("DROP TABLE tmp").code(), StatusCode::kNotFound);
  EXPECT_EQ(ExecErr("SELECT * FROM tmp").code(), StatusCode::kNotFound);
  EXPECT_EQ(ExecErr("CREATE TABLE bad (x NOSUCHTYPE)").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ExecErr("CREATE TABLE dup (x INT, X INT)").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, NameResolutionErrors) {
  EXPECT_EQ(ExecErr("SELECT nosuch FROM emp").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ExecErr("SELECT dept FROM emp, dept").code(),
            StatusCode::kInvalidArgument);  // ambiguous
  EXPECT_EQ(ExecErr("SELECT e.name FROM emp e, emp e").code(),
            StatusCode::kInvalidArgument);  // duplicate alias
  EXPECT_EQ(ExecErr("SELECT emp.name FROM emp e").code(),
            StatusCode::kNotFound);  // alias hides table name
}

TEST_F(ExecutorTest, ParameterBinding) {
  Params params;
  params["lo"] = Datum::Int(85);
  params["d"] = Datum::String("eng");
  Result<ResultSet> r = db_.Execute(
      "SELECT name FROM emp WHERE salary > :lo AND dept = :d", params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Flat(*r), "alice");
  EXPECT_EQ(ExecErr("SELECT :missing").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, ThreeValuedLogic) {
  EXPECT_EQ(Flat(Exec("SELECT NULL AND false, NULL AND true, "
                      "NULL OR true, NULL OR false, NOT NULL")),
            "false,NULL,true,NULL,NULL");
}

TEST_F(ExecutorTest, DivisionErrors) {
  EXPECT_EQ(ExecErr("SELECT 1 / 0").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ExecErr("SELECT salary / 0 FROM emp").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, IntOverflowChecked) {
  EXPECT_EQ(ExecErr("SELECT 9223372036854775807 + 1").code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ExecErr("SELECT 9223372036854775807 * 2").code(),
            StatusCode::kOutOfRange);
}

TEST_F(ExecutorTest, ScalarFunctions) {
  EXPECT_EQ(Flat(Exec("SELECT abs(-5), mod(7, 3), greatest(2, 9), "
                      "least('b', 'a'), length('abc'), upper('x'), "
                      "lower('Y')")),
            "5,1,9,a,3,X,y");
}

TEST_F(ExecutorTest, SetOptionValidation) {
  EXPECT_EQ(ExecErr("SET nosuch on").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ExecErr("SET hash_join maybe").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, OrderByDistinctRestriction) {
  EXPECT_EQ(ExecErr("SELECT DISTINCT name FROM emp ORDER BY salary")
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, AggregateOverJoin) {
  EXPECT_EQ(Flat(Exec("SELECT d.floor, sum(e.salary) FROM emp e, dept d "
                      "WHERE e.dept = d.dept GROUP BY d.floor "
                      "ORDER BY d.floor")),
            "1,200;2,90;3,180");
}

TEST_F(ExecutorTest, OrderByAggregateNotInSelectList) {
  EXPECT_EQ(Flat(Exec("SELECT dept FROM emp GROUP BY dept "
                      "ORDER BY sum(salary) DESC")),
            "sales;eng;hr");
}

}  // namespace
}  // namespace tip::engine
