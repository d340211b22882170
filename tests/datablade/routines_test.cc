#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "datablade/datablade.h"

namespace tip::datablade {
namespace {

/// The TIP routine catalog (Allen's operators, Element algebra,
/// accessors, aggregates) exercised through SQL.
class RoutinesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Install(&db_).ok());
    Exec("SET NOW '1999-11-15'");
  }

  engine::ResultSet Exec(std::string_view sql) {
    Result<engine::ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : engine::ResultSet{};
  }

  std::string One(std::string_view sql) {
    engine::ResultSet r = Exec(sql);
    if (r.rows.size() != 1 || r.rows[0].size() != 1) return "<shape>";
    return db_.types().Format(r.rows[0][0]);
  }

  engine::Database db_;
};

// Allen relation sweep: each named routine agrees with the classifying
// allen() routine for a pair in that exact relation.
struct AllenCase {
  const char* a;
  const char* b;
  const char* relation;
};

// Prints a case as its relation name. The default printer dumps the
// struct's bytes, i.e. the string pointers, which differ from build to
// build; ctest names discovered parameterized tests after this value,
// so those names changed with every build.
void PrintTo(const AllenCase& c, std::ostream* os) { *os << c.relation; }

class AllenSqlTest : public RoutinesTest,
                     public ::testing::WithParamInterface<AllenCase> {};

// Re-declared fixture members must be initialized through RoutinesTest.
TEST_P(AllenSqlTest, NamedRoutineMatchesClassification) {
  const AllenCase& c = GetParam();
  const std::string a = std::string("'") + c.a + "'::Period";
  const std::string b = std::string("'") + c.b + "'::Period";
  EXPECT_EQ(One("SELECT allen(" + a + ", " + b + ")"), c.relation);
  // `overlaps` / `contains` keep SQL semantics; the strict Allen test
  // for them is only reachable through allen().
  const std::string relation = c.relation;
  if (relation != "overlaps" && relation != "contains") {
    EXPECT_EQ(One("SELECT " + relation + "(" + a + ", " + b + ")"),
              "true");
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThirteenRelations, AllenSqlTest,
    ::testing::Values(
        AllenCase{"[1999-01-01, 1999-01-10]", "[1999-02-01, 1999-02-10]",
                  "before"},
        AllenCase{"[1999-01-01, 1999-01-31 23:59:59]",
                  "[1999-02-01, 1999-02-10]", "meets"},
        AllenCase{"[1999-01-01, 1999-02-05]", "[1999-02-01, 1999-03-01]",
                  "overlaps"},
        AllenCase{"[1999-01-01, 1999-03-01]", "[1999-02-01, 1999-03-01]",
                  "finished_by"},
        AllenCase{"[1999-01-01, 1999-04-01]", "[1999-02-01, 1999-03-01]",
                  "contains"},
        AllenCase{"[1999-02-01, 1999-02-10]", "[1999-02-01, 1999-03-01]",
                  "starts"},
        AllenCase{"[1999-02-01, 1999-03-01]", "[1999-02-01, 1999-03-01]",
                  "equals"},
        AllenCase{"[1999-02-01, 1999-04-01]", "[1999-02-01, 1999-03-01]",
                  "started_by"},
        AllenCase{"[1999-02-10, 1999-02-20]", "[1999-02-01, 1999-03-01]",
                  "during"},
        AllenCase{"[1999-02-20, 1999-03-01]", "[1999-02-01, 1999-03-01]",
                  "finishes"},
        AllenCase{"[1999-02-15, 1999-04-01]", "[1999-02-01, 1999-03-01]",
                  "overlapped_by"},
        AllenCase{"[1999-03-01, 1999-04-01]",
                  "[1999-02-01, 1999-02-28 23:59:59]", "met_by"},
        AllenCase{"[1999-03-01, 1999-04-01]", "[1999-01-01, 1999-02-01]",
                  "after"}));

TEST_F(RoutinesTest, PeriodPredicatesSqlSemantics) {
  // overlaps(p, q): shares at least one chronon (not the strict Allen
  // class).
  EXPECT_EQ(One("SELECT overlaps('[1999-01-01, 1999-02-01]'::Period, "
                "'[1999-02-01, 1999-03-01]'::Period)"),
            "true");
  EXPECT_EQ(One("SELECT contains('[1999-01-01, 1999-03-01]'::Period, "
                "'[1999-01-01, 1999-02-01]'::Period)"),
            "true");
  EXPECT_EQ(One("SELECT contains('[1999-01-01, 1999-03-01]'::Period, "
                "'1999-02-14'::Chronon)"),
            "true");
  EXPECT_EQ(One("SELECT duration('[1999-01-01, 1999-01-02]'::Period)"
                "::char"),
            "1 00:00:01");
  EXPECT_EQ(One("SELECT period('NOW-7'::Instant, 'NOW'::Instant)::char"),
            "[NOW-7, NOW]");
  EXPECT_EQ(One("SELECT shift('[NOW-7, NOW]'::Period, '7'::Span)::char"),
            "[NOW, NOW+7]");
}

TEST_F(RoutinesTest, ElementAlgebraRoutines) {
  const char* a = "'{[1999-01-01, 1999-01-31]}'::Element";
  const char* b = "'{[1999-01-20, 1999-02-10]}'::Element";
  EXPECT_EQ(One(std::string("SELECT union(") + a + ", " + b + ")::char"),
            "{[1999-01-01, 1999-02-10]}");
  EXPECT_EQ(One(std::string("SELECT intersect(") + a + ", " + b +
                ")::char"),
            "{[1999-01-20, 1999-01-31]}");
  EXPECT_EQ(One(std::string("SELECT difference(") + a + ", " + b +
                ")::char"),
            "{[1999-01-01, 1999-01-19 23:59:59]}");
  EXPECT_EQ(One(std::string("SELECT overlaps(") + a + ", " + b + ")"),
            "true");
  EXPECT_EQ(One(std::string("SELECT contains(") + a + ", " + b + ")"),
            "false");
}

TEST_F(RoutinesTest, ElementAccessors) {
  const char* e =
      "'{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}'::Element";
  EXPECT_EQ(One(std::string("SELECT start(") + e + ")::char"),
            "1999-01-01");
  EXPECT_EQ(One(std::string("SELECT end(") + e + ")::char"), "1999-10-31");
  EXPECT_EQ(One(std::string("SELECT first(") + e + ")::char"),
            "[1999-01-01, 1999-04-30]");
  EXPECT_EQ(One(std::string("SELECT last(") + e + ")::char"),
            "[1999-07-01, 1999-10-31]");
  EXPECT_EQ(One(std::string("SELECT extent(") + e + ")::char"),
            "[1999-01-01, 1999-10-31]");
  EXPECT_EQ(One(std::string("SELECT num_periods(") + e + ")"), "2");
  EXPECT_EQ(One(std::string("SELECT is_empty(") + e + ")"), "false");
  EXPECT_EQ(One("SELECT is_empty('{}'::Element)"), "true");
  EXPECT_EQ(One(std::string("SELECT contains(") + e +
                ", '1999-03-15'::Chronon)"),
            "true");
  EXPECT_EQ(One(std::string("SELECT contains(") + e +
                ", '1999-05-15'::Chronon)"),
            "false");
}

TEST_F(RoutinesTest, ElementLengthCountsCoveredChronons) {
  EXPECT_EQ(One("SELECT length('{[1999-01-01, 1999-01-02]}'::Element)"
                "::char"),
            "1 00:00:01");
  EXPECT_EQ(One("SELECT length('{}'::Element)::char"), "0");
}

TEST_F(RoutinesTest, AccessorsOnEmptyElementFail) {
  Result<engine::ResultSet> r =
      db_.Execute("SELECT start('{}'::Element)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RoutinesTest, ShiftElementPreservesNow) {
  EXPECT_EQ(One("SELECT shift('{[1999-01-01, NOW]}'::Element, "
                "'1'::Span)::char"),
            "{[1999-01-02, NOW+1]}");
}

TEST_F(RoutinesTest, MixedTypeCallsResolveThroughCasts) {
  // Element routine with a Period argument (implicit period->element).
  EXPECT_EQ(One("SELECT overlaps('{[1999-01-01, 1999-01-31]}'::Element, "
                "'[1999-01-15, 1999-02-15]'::Period)"),
            "true");
  // Period routine with a Chronon argument (implicit chronon->period).
  EXPECT_EQ(One("SELECT overlaps('[1999-01-01, 1999-01-31]'::Period, "
                "'1999-01-15'::Chronon)"),
            "true");
  // A bare string literal matches length(char) *exactly*, so overload
  // resolution never considers the Element overload — exact beats cast.
  EXPECT_EQ(One("SELECT length('{[1999-01-01, 1999-01-01]}')"), "26");
  EXPECT_EQ(One("SELECT length('{[1999-01-01, 1999-01-01]}'::Element)"
                "::char"),
            "0 00:00:01");
}

TEST_F(RoutinesTest, ContainsInstantOverloads) {
  // NOW = 1999-11-15; NOW-7 = 1999-11-08.
  EXPECT_EQ(One("SELECT contains('{[1999-11-01, NOW]}'::Element, "
                "'NOW-7'::Instant)"),
            "true");
  EXPECT_EQ(One("SELECT contains('{[1999-01-01, 1999-02-01]}'::Element, "
                "'NOW'::Instant)"),
            "false");
  EXPECT_EQ(One("SELECT contains('[NOW-30, NOW]'::Period, "
                "'NOW-7'::Instant)"),
            "true");
}

TEST_F(RoutinesTest, ExpandGrowsAndShrinks) {
  EXPECT_EQ(One("SELECT expand('{[1999-02-01, 1999-02-10]}'::Element, "
                "'2'::Span)::char"),
            "{[1999-01-30, 1999-02-12]}");
  // Growth merges nearby periods.
  EXPECT_EQ(One("SELECT expand('{[1999-02-01, 1999-02-02], "
                "[1999-02-05, 1999-02-06]}'::Element, '2'::Span)"
                "::char"),
            "{[1999-01-30, 1999-02-08]}");
  // Shrinking drops periods that invert.
  EXPECT_EQ(One("SELECT expand('{[1999-02-01, 1999-02-10], "
                "[1999-03-01, 1999-03-02]}'::Element, '-1'::Span)"
                "::char"),
            "{[1999-02-02, 1999-02-09]}");
  EXPECT_EQ(One("SELECT expand('{}'::Element, '5'::Span)::char"), "{}");
  // Growth clamps at the calendar bounds.
  EXPECT_EQ(One("SELECT end(expand('{[9999-12-01, 9999-12-30]}'::Element,"
                " '365'::Span))::char"),
            "9999-12-31 23:59:59");
}

TEST_F(RoutinesTest, TransactionTimeRoutine) {
  EXPECT_EQ(One("SELECT transaction_time()::char"), "1999-11-15");
  Exec("SET NOW '2001-02-03'");
  EXPECT_EQ(One("SELECT transaction_time()::char"), "2001-02-03");
}

TEST_F(RoutinesTest, GroupUnionCoalesces) {
  Exec("CREATE TABLE t (k CHAR(5), v Element)");
  Exec("INSERT INTO t VALUES "
       "('a', '{[1999-01-01, 1999-01-10]}'), "
       "('a', '{[1999-01-05, 1999-01-20]}'), "
       "('a', '{[1999-03-01, 1999-03-10]}'), "
       "('b', '{[1999-06-01, 1999-06-30]}')");
  engine::ResultSet r = Exec(
      "SELECT k, group_union(v)::char FROM t GROUP BY k ORDER BY k");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].string_value(),
            "{[1999-01-01, 1999-01-20], [1999-03-01, 1999-03-10]}");
  EXPECT_EQ(r.rows[1][1].string_value(), "{[1999-06-01, 1999-06-30]}");
}

TEST_F(RoutinesTest, GroupIntersect) {
  Exec("CREATE TABLE t (v Element)");
  Exec("INSERT INTO t VALUES "
       "('{[1999-01-01, 1999-01-20]}'), "
       "('{[1999-01-10, 1999-01-30]}'), "
       "('{[1999-01-15, 1999-02-28]}')");
  EXPECT_EQ(One("SELECT group_intersect(v)::char FROM t"),
            "{[1999-01-15, 1999-01-20]}");
}

TEST_F(RoutinesTest, SumOverSpans) {
  Exec("CREATE TABLE t (s Span)");
  Exec("INSERT INTO t VALUES ('1'), ('0 12:00:00'), ('-2'), (NULL)");
  EXPECT_EQ(One("SELECT sum(s)::char FROM t"), "-0 12:00:00");
  EXPECT_EQ(One("SELECT sum(s)::char FROM t WHERE s > '0'::Span"),
            "1 12:00:00");
  EXPECT_EQ(One("SELECT sum(s)::char FROM t WHERE false"), "NULL");
}

TEST_F(RoutinesTest, GroupUnionAcceptsPeriodsThroughCast) {
  Exec("CREATE TABLE t (p Period)");
  Exec("INSERT INTO t VALUES ('[1999-01-01, 1999-01-10]'), "
       "('[1999-01-05, 1999-01-20]')");
  EXPECT_EQ(One("SELECT group_union(p)::char FROM t"),
            "{[1999-01-01, 1999-01-20]}");
}

TEST_F(RoutinesTest, MinMaxOverChronons) {
  Exec("CREATE TABLE t (c Chronon)");
  Exec("INSERT INTO t VALUES ('1999-03-01'), ('1999-01-01'), "
       "('1999-02-01')");
  EXPECT_EQ(One("SELECT min(c)::char FROM t"), "1999-01-01");
  EXPECT_EQ(One("SELECT max(c)::char FROM t"), "1999-03-01");
}

TEST_F(RoutinesTest, SumOfLengthsVsLengthOfGroupUnion) {
  // The paper's warning: SUM(length(valid)) double-counts overlap;
  // length(group_union(valid)) does not. (SUM over Span works through
  // span/int casts? No: Span has no SUM — sum the seconds instead.)
  Exec("CREATE TABLE t (v Element)");
  Exec("INSERT INTO t VALUES "
       "('{[1999-01-01, 1999-01-10]}'), "
       "('{[1999-01-01, 1999-01-10]}')");
  EXPECT_EQ(One("SELECT (length(v) / '0 00:00:01'::Span) FROM t LIMIT 1"),
            "777601");
  EXPECT_EQ(One("SELECT sum(length(v) / '0 00:00:01'::Span) FROM t"),
            "1555202");  // double-counted
  EXPECT_EQ(One("SELECT (length(group_union(v)) / '0 00:00:01'::Span) "
                "FROM t"),
            "777601");  // coalesced
}

// -- Borrowed arguments -------------------------------------------------------
// Expressions hand routines their arguments in place: columns of the
// current row (of this query or an outer one), bound parameters, or
// values computed into the caller's slots. These cases pin the paths
// where a borrowed value could outlive what it points into.

class BorrowedArgumentsTest : public RoutinesTest {
 protected:
  // Every row of `sql`, each formatted as "v1|v2|...".
  std::vector<std::string> Rows(std::string_view sql) {
    std::vector<std::string> out;
    for (const engine::Row& row : Exec(sql).rows) {
      std::string line;
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) line += "|";
        line += db_.types().Format(row[i]);
      }
      out.push_back(line);
    }
    return out;
  }
};

TEST_F(BorrowedArgumentsTest, CorrelatedSubqueryCallsRoutineOnOuterElement) {
  Exec("CREATE TABLE rx (patient CHAR(20), valid Element)");
  Exec("CREATE TABLE visits (patient CHAR(20), day Chronon)");
  Exec("CREATE TABLE win (w Element)");
  Exec("INSERT INTO rx VALUES ('ann', '{[1999-01-01, 1999-03-31]}'), "
       "('bob', '{[1999-06-01, NOW]}'), ('cy', NULL)");
  Exec("INSERT INTO visits VALUES ('ann', '1999-02-01'), "
       "('ann', '1999-05-01'), ('bob', '1999-07-01'), "
       "('bob', '1999-11-01'), ('bob', '1999-12-01'), ('cy', '1999-01-01')");
  Exec("INSERT INTO win VALUES ('{[1999-03-01, 1999-06-30]}')");
  // The subqueries read rx.valid from the outer scope, once as a
  // routine argument in a filter and once inside a computed value that
  // the scalar subquery hands back.
  EXPECT_EQ(Rows("SELECT patient, "
                 "(SELECT count(*) FROM visits v WHERE v.patient = "
                 "rx.patient AND contains(rx.valid, v.day)), "
                 "(SELECT length(intersect(rx.valid, w))::char FROM win) "
                 "FROM rx ORDER BY patient"),
            (std::vector<std::string>{"ann|1|30 00:00:01",
                                      "bob|2|29 00:00:01", "cy|0|NULL"}));
}

TEST_F(BorrowedArgumentsTest, StrictRoutineWithNullSecondArgument) {
  Exec("CREATE TABLE t (id INT, v Element, w Element)");
  Exec("INSERT INTO t VALUES "
       "(1, '{[1999-01-01, 1999-01-31]}', '{[1999-01-15, 1999-02-15]}'), "
       "(2, '{[1999-01-01, 1999-01-31]}', NULL), "
       "(3, '{[1999-05-01, NOW]}', NULL)");
  // The first argument is already evaluated (a column, or a value
  // computed into its slot) when the NULL second one stops the call.
  EXPECT_EQ(Rows("SELECT id, intersect(v, w)::char, "
                 "intersect(union(v, v), w) IS NULL, overlaps(v, w) "
                 "FROM t ORDER BY id"),
            (std::vector<std::string>{
                "1|{[1999-01-15, 1999-01-31]}|false|true",
                "2|NULL|true|NULL", "3|NULL|true|NULL"}));
  EXPECT_EQ(Rows("SELECT id FROM t WHERE overlaps(v, w) ORDER BY id"),
            (std::vector<std::string>{"1"}));
}

TEST_F(BorrowedArgumentsTest, GreatestAndLeastReturnABorrowedArgument) {
  Exec("CREATE TABLE s (a CHAR(10), b CHAR(10))");
  Exec("INSERT INTO s VALUES ('apple', 'pear'), ('zoo', 'ant'), "
       "(NULL, 'x')");
  // Each returns one of its arguments as read from the row; the result
  // must be a value of its own, here fed on to further routines.
  EXPECT_EQ(Rows("SELECT greatest(a, b), least(a, b), "
                 "upper(greatest(a, b)), least(a || '!', b || '?') "
                 "FROM s ORDER BY b"),
            (std::vector<std::string>{"zoo|ant|ZOO|ant?",
                                      "pear|apple|PEAR|apple!",
                                      "NULL|NULL|NULL|NULL"}));
}

TEST_F(BorrowedArgumentsTest, PreparedStatementRebindsStringAndElement) {
  Exec("CREATE TABLE rx (patient CHAR(20), valid Element)");
  for (int i = 0; i < 10; ++i) {
    // patient i holds January of year 1990 + i.
    const std::string year = std::to_string(1990 + i);
    Exec("INSERT INTO rx VALUES ('p" + std::to_string(i) + "', '{[" + year +
         "-01-01, " + year + "-01-31]}')");
  }
  Result<TipTypes> t = TipTypes::Lookup(db_);
  ASSERT_TRUE(t.ok());
  Result<std::shared_ptr<const engine::PreparedPlan>> plan = db_.Prepare(
      "SELECT patient, :p, intersect(valid, :w) FROM rx "
      "WHERE patient = :p AND overlaps(valid, :w)");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (int i = 0; i < 100; ++i) {
    // Even runs ask for the patient's own January, odd runs for the
    // year after: a stale parameter would answer for the wrong run.
    const int patient = i % 10;
    const std::string year = std::to_string(1990 + patient + i % 2);
    engine::Params params;
    params["p"] = engine::Datum::String("p" + std::to_string(patient));
    params["w"] = MakeElement(
        *t, *Element::Parse("{[" + year + "-01-10, " + year + "-02-10]}"));
    Result<engine::ResultSet> r = db_.ExecutePrepared(**plan, &params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (i % 2 == 1) {
      EXPECT_TRUE(r->rows.empty()) << "run " << i;
      continue;
    }
    ASSERT_EQ(r->rows.size(), 1u) << "run " << i;
    EXPECT_EQ(r->rows[0][0].string_value(), "p" + std::to_string(patient));
    EXPECT_EQ(r->rows[0][1].string_value(), "p" + std::to_string(patient));
    EXPECT_EQ(GetElement(r->rows[0][2]).ToString(),
              "{[" + year + "-01-10, " + year + "-01-31]}");
  }
}

}  // namespace
}  // namespace tip::datablade
