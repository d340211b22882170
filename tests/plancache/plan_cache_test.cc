// Prepared-statement / plan-cache behavior: parse once, plan once,
// execute many. These tests assert against Database::plan_cache_stats()
// directly (running `SELECT tip_plan_stats()` would itself perturb the
// counters under test) and cover the invalidation matrix: DDL bumps the
// catalog version, SET changes the settings fingerprint, a rebind that
// changes a parameter's type changes the plan signature — while SET NOW
// re-grounds the same cached plan without replanning.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "client/connection.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "engine/exec/prepared_plan.h"

namespace tip::engine {
namespace {

/// A snapshot of the atomic counters, for before/after deltas.
struct StatsSnap {
  uint64_t hits, misses, invalidations, evictions;
  static StatsSnap Of(const Database& db) {
    const PlanCacheStats& s = db.plan_cache_stats();
    return {s.hits.load(), s.misses.load(), s.invalidations.load(),
            s.evictions.load()};
  }
};

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(datablade::Install(db_.get()).ok());
    Must("CREATE TABLE emp (name CHAR(20), salary INT)");
    Must("INSERT INTO emp VALUES ('ada', 100)");
    Must("INSERT INTO emp VALUES ('bob', 200)");
  }

  ResultSet Must(const std::string& sql) {
    Result<ResultSet> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlanCacheTest, RepeatedExecuteHitsTextCache) {
  const std::string sql = "SELECT name FROM emp WHERE salary > 150";
  Must(sql);  // cold: parse + plan
  const StatsSnap before = StatsSnap::Of(*db_);
  ResultSet r1 = Must(sql);
  ResultSet r2 = Must(sql);
  const StatsSnap after = StatsSnap::Of(*db_);
  EXPECT_EQ(after.hits, before.hits + 2);
  EXPECT_EQ(after.misses, before.misses);
  ASSERT_EQ(r2.rows.size(), 1u);
  EXPECT_EQ(r2.rows[0][0].string_value(), "bob");
  EXPECT_GE(db_->plan_cache_entries(), 1u);
}

TEST_F(PlanCacheTest, PreparedHandleReusesOnePlanAcrossRebinds) {
  Result<std::shared_ptr<const PreparedPlan>> plan =
      db_->Prepare("SELECT name FROM emp WHERE salary > :cut");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Params params;
  params["cut"] = Datum::Int(150);
  Result<ResultSet> r = db_->ExecutePrepared(**plan, &params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].string_value(), "bob");

  const StatsSnap before = StatsSnap::Of(*db_);
  params["cut"] = Datum::Int(50);  // rebind, same type: no replan
  r = db_->ExecutePrepared(**plan, &params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  const StatsSnap after = StatsSnap::Of(*db_);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(PlanCacheTest, DropTableInvalidatesCachedPlan) {
  Result<std::shared_ptr<const PreparedPlan>> plan =
      db_->Prepare("SELECT name FROM emp");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(db_->ExecutePrepared(**plan).ok());

  const uint64_t version = db_->catalog_version();
  Must("DROP TABLE emp");
  EXPECT_GT(db_->catalog_version(), version);

  // The cached variant is dead; re-planning fails cleanly, it does not
  // execute a tree holding a dangling Table*.
  Result<ResultSet> gone = db_->ExecutePrepared(**plan);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);

  // Re-created table: the same handle re-plans and works again.
  Must("CREATE TABLE emp (name CHAR(20), salary INT)");
  Must("INSERT INTO emp VALUES ('eve', 300)");
  Result<ResultSet> again = db_->ExecutePrepared(**plan);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->rows.size(), 1u);
  EXPECT_EQ(again->rows[0][0].string_value(), "eve");
  EXPECT_GE(StatsSnap::Of(*db_).invalidations, 1u);
}

TEST_F(PlanCacheTest, FunctionRedefinitionReplans) {
  Must("CREATE FUNCTION bump(x INT) RETURNS INT AS 'x + 1'");
  Result<std::shared_ptr<const PreparedPlan>> plan =
      db_->Prepare("SELECT bump(salary) FROM emp WHERE name = 'ada'");
  ASSERT_TRUE(plan.ok());
  Result<ResultSet> r = db_->ExecutePrepared(**plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int_value(), 101);

  // Redefine the routine: the cached plan resolved a raw Routine* at
  // plan time, so the registry bump must force a replan, not stale
  // results (or a dangling pointer).
  Must("DROP FUNCTION bump");
  Must("CREATE FUNCTION bump(x INT) RETURNS INT AS 'x + 1000'");
  r = db_->ExecutePrepared(**plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].int_value(), 1100);
}

TEST_F(PlanCacheTest, SetParallelWorkersReplansViaFingerprint) {
  const std::string sql = "SELECT name FROM emp WHERE salary > 0";
  Must(sql);
  Must(sql);  // warm
  const StatsSnap before = StatsSnap::Of(*db_);
  // One more than the default cap (the core count), so the setting
  // changes on any machine.
  Must("SET parallel_workers " + std::to_string(db_->parallel_workers() + 1));
  ResultSet r = Must(sql);  // new fingerprint: replanned, same answer
  EXPECT_EQ(r.rows.size(), 2u);
  const StatsSnap after = StatsSnap::Of(*db_);
  EXPECT_EQ(after.misses, before.misses + 1);
}

// The text cache is keyed on the SQL alone: two sessions whose worker
// caps differ share one entry, each plans its own variant once (one
// miss per setting), and both hit after that.
TEST_F(PlanCacheTest, SessionsWithDifferentSettingsShareOneTextEntry) {
  const std::string sql = "SELECT name FROM emp WHERE salary > 150";
  SessionContext serial;
  SessionContext wide;
  serial.parallel_workers = 1;
  wide.parallel_workers = db_->parallel_workers() + 1;
  const size_t entries_before = db_->plan_cache_entries();
  const StatsSnap before = StatsSnap::Of(*db_);
  for (int round = 0; round < 3; ++round) {
    for (SessionContext* session : {&serial, &wide}) {
      Result<ResultSet> r = db_->Execute(sql, nullptr, session);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->rows.size(), 1u);
      EXPECT_EQ(r->rows[0][0].string_value(), "bob");
    }
  }
  const StatsSnap after = StatsSnap::Of(*db_);
  EXPECT_EQ(db_->plan_cache_entries(), entries_before + 1);
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.hits - before.hits, 4u);
}

TEST_F(PlanCacheTest, SetNowRegroundsWithoutReplanning) {
  db_->SetNowOverride(*Chronon::Parse("1999-11-15"));
  Must("CREATE TABLE hist (name CHAR(20), valid Element)");
  Must("INSERT INTO hist VALUES ('a', '{[1999-01-01, NOW]}')");

  Result<std::shared_ptr<const PreparedPlan>> plan =
      db_->Prepare("SELECT length(valid) FROM hist WHERE name = 'a'");
  ASSERT_TRUE(plan.ok());
  Result<ResultSet> r = db_->ExecutePrepared(**plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const int64_t before_secs =
      datablade::GetSpan(r->rows[0][0]).seconds();

  // Moving NOW must change the answer through the same cached plan:
  // a hit, not a miss — nothing NOW-dependent was folded at plan time.
  const StatsSnap before = StatsSnap::Of(*db_);
  db_->SetNowOverride(*Chronon::Parse("1999-12-15"));
  r = db_->ExecutePrepared(**plan);
  ASSERT_TRUE(r.ok());
  const int64_t after_secs = datablade::GetSpan(r->rows[0][0]).seconds();
  EXPECT_EQ(after_secs - before_secs, 30 * 86400);
  const StatsSnap after = StatsSnap::Of(*db_);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(PlanCacheTest, ParameterTypeChangeReplans) {
  Result<std::shared_ptr<const PreparedPlan>> plan =
      db_->Prepare("SELECT :v");
  ASSERT_TRUE(plan.ok());

  Params params;
  params["v"] = Datum::Int(7);
  Result<ResultSet> r = db_->ExecutePrepared(**plan, &params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int_value(), 7);

  const StatsSnap before = StatsSnap::Of(*db_);
  params["v"] = Datum::String("seven");  // new type: new plan variant
  r = db_->ExecutePrepared(**plan, &params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].string_value(), "seven");
  const StatsSnap mid = StatsSnap::Of(*db_);
  EXPECT_EQ(mid.misses, before.misses + 1);

  params["v"] = Datum::Int(8);  // back to the first variant: a hit
  r = db_->ExecutePrepared(**plan, &params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int_value(), 8);
  EXPECT_EQ(StatsSnap::Of(*db_).hits, mid.hits + 1);
}

TEST_F(PlanCacheTest, LruEvictionHonorsSetPlanCacheSize) {
  Must("SET plan_cache_size 2");
  EXPECT_EQ(db_->plan_cache_capacity(), 2u);
  Must("SELECT 1");
  Must("SELECT 2");
  Must("SELECT 3");
  EXPECT_LE(db_->plan_cache_entries(), 2u);
  EXPECT_GE(StatsSnap::Of(*db_).evictions, 1u);

  Result<ResultSet> bad = db_->Execute("SET plan_cache_size 0");
  EXPECT_FALSE(bad.ok());
}

TEST_F(PlanCacheTest, SetPlanCacheOffBypassesCache) {
  Must("SET plan_cache off");
  EXPECT_FALSE(db_->plan_cache_enabled());
  const StatsSnap before = StatsSnap::Of(*db_);
  const size_t entries = db_->plan_cache_entries();
  ResultSet r = Must("SELECT name FROM emp WHERE salary > 150");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "bob");
  const StatsSnap after = StatsSnap::Of(*db_);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(db_->plan_cache_entries(), entries);
  Must("SET plan_cache on");
  EXPECT_TRUE(db_->plan_cache_enabled());
}

TEST_F(PlanCacheTest, UnboundParameterFailsClosed) {
  Result<std::shared_ptr<const PreparedPlan>> plan =
      db_->Prepare("SELECT name FROM emp WHERE salary > :cut");
  ASSERT_TRUE(plan.ok());

  // No params at all: the planner's legacy message is preserved.
  Result<ResultSet> none = db_->ExecutePrepared(**plan);
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.status().ToString().find(":cut"), std::string::npos);

  // A params map that misses the name: fail-closed at bind time.
  Params params;
  params["other"] = Datum::Int(1);
  Result<ResultSet> missing = db_->ExecutePrepared(**plan, &params);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().ToString().find(":cut"), std::string::npos);
}

TEST_F(PlanCacheTest, PreparedInsertExecutesRepeatedly) {
  Result<std::shared_ptr<const PreparedPlan>> plan =
      db_->Prepare("INSERT INTO emp VALUES (:n, :s)");
  ASSERT_TRUE(plan.ok());
  Params params;
  for (int i = 0; i < 3; ++i) {
    params["n"] = Datum::String("w" + std::to_string(i));
    params["s"] = Datum::Int(1000 + i);
    Result<ResultSet> r = db_->ExecutePrepared(**plan, &params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->affected_rows, 1);
  }
  ResultSet all = Must("SELECT name FROM emp WHERE salary >= 1000");
  EXPECT_EQ(all.rows.size(), 3u);
}

TEST_F(PlanCacheTest, TipPlanStatsFunctionAndExplainSurface) {
  Must("SELECT 1");
  Must("SELECT 1");
  ResultSet text = Must("SELECT tip_plan_stats()");
  ASSERT_EQ(text.rows.size(), 1u);
  EXPECT_NE(text.rows[0][0].string_value().find("hits="),
            std::string::npos);
  ResultSet hits = Must("SELECT tip_plan_stats('hits')");
  EXPECT_GE(hits.rows[0][0].int_value(), 1);
  Result<ResultSet> bad = db_->Execute("SELECT tip_plan_stats('nope')");
  EXPECT_FALSE(bad.ok());

  // The cache has traffic, yet EXPLAIN shows the plan only.
  ResultSet explain = Must("EXPLAIN SELECT name FROM emp");
  ASSERT_FALSE(explain.rows.empty());
  for (const auto& row : explain.rows) {
    EXPECT_EQ(row[0].string_value().find("PlanCacheStats("),
              std::string::npos);
    EXPECT_EQ(row[0].string_value().find("hits="), std::string::npos);
  }
}

}  // namespace
}  // namespace tip::engine

namespace tip::client {
namespace {

TEST(PreparedStatementClientTest, PrepareReportsParseErrorsEagerly) {
  Result<std::unique_ptr<Connection>> conn = Connection::Open();
  ASSERT_TRUE(conn.ok());
  Statement stmt = (*conn)->Prepare("SELEC 1");
  ASSERT_FALSE(stmt.status().ok());
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
  EXPECT_NE(stmt.status().ToString().find(
                "expected a SQL statement, got 'SELEC'"),
            std::string::npos)
      << stmt.status().ToString();
  // Execute reports the same failure without running anything.
  Result<ResultSet> r = stmt.Execute();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(PreparedStatementClientTest, ValidPrepareSurvivesRebinding) {
  Result<std::unique_ptr<Connection>> conn = Connection::Open();
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->Execute("CREATE TABLE t (id INT)").ok());
  ASSERT_TRUE((*conn)->Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE((*conn)->Execute("INSERT INTO t VALUES (2)").ok());

  Statement stmt = (*conn)->Prepare("SELECT id FROM t WHERE id = :id");
  ASSERT_TRUE(stmt.status().ok()) << stmt.status().ToString();
  for (int64_t id = 1; id <= 2; ++id) {
    Result<ResultSet> r = stmt.ClearBindings().BindInt("id", id).Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->row_count(), 1u);
    EXPECT_EQ(r->GetInt(0, 0), id);
  }
}

}  // namespace
}  // namespace tip::client
