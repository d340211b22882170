#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/exec/parallel_exec.h"
#include "engine/sql/parser.h"
#include "engine/storage/heap_table.h"
#include "workload/medical.h"

namespace tip::engine {
namespace {

// -- ThreadPool --------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool;
  std::vector<std::atomic<int>> hits(8);
  ASSERT_TRUE(pool.RunOnWorkers(8, [&](size_t w) {
                    hits[w].fetch_add(1);
                    return Status::OK();
                  }).ok());
  for (size_t w = 0; w < hits.size(); ++w) {
    EXPECT_EQ(hits[w].load(), 1) << "worker " << w;
  }
}

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  ThreadPool pool;
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  ASSERT_TRUE(pool.RunOnWorkers(1, [&](size_t) {
                    seen = std::this_thread::get_id();
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, CallerParticipatesAsWorkerZero) {
  ThreadPool pool;
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id worker0;
  ASSERT_TRUE(pool.RunOnWorkers(4, [&](size_t w) {
                    if (w == 0) worker0 = std::this_thread::get_id();
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(worker0, caller);
}

TEST(ThreadPoolTest, NestedParallelismRunsInlineWithoutDeadlock) {
  // A parallel operator inside a correlated subplan would call
  // RunOnWorkers from a pool thread; that must degrade to inline
  // execution instead of deadlocking a saturated pool.
  ThreadPool pool;
  std::atomic<int> inner_runs{0};
  ASSERT_TRUE(pool.RunOnWorkers(4, [&](size_t) {
                    return pool.RunOnWorkers(4, [&](size_t) {
                      inner_runs.fetch_add(1);
                      return Status::OK();
                    });
                  }).ok());
  EXPECT_EQ(inner_runs.load(), 16);
}

TEST(ThreadPoolTest, OnWorkerThreadFlag) {
  ThreadPool pool;
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  std::atomic<int> on_pool{0};
  ASSERT_TRUE(pool.RunOnWorkers(4, [&](size_t w) {
                    if (w != 0 && ThreadPool::OnWorkerThread()) {
                      on_pool.fetch_add(1);
                    }
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(on_pool.load(), 3);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

// -- MorselSource ------------------------------------------------------------

TEST(MorselSourceTest, CoversEveryPageExactlyOnce) {
  HeapTable table;
  const uint32_t kPages = 21;  // deliberately not a multiple of 8
  for (uint32_t i = 0; i < kPages * kRowsPerPage; ++i) {
    table.Insert(Row{});
  }
  ASSERT_EQ(table.page_count(), kPages);

  MorselSource source(&table, 8);
  std::vector<int> claims(kPages, 0);
  Morsel m;
  while (source.Next(&m)) {
    ASSERT_LT(m.page_begin, m.page_end);
    ASSERT_LE(m.page_end, kPages);
    for (uint32_t p = m.page_begin; p < m.page_end; ++p) ++claims[p];
  }
  for (uint32_t p = 0; p < kPages; ++p) {
    EXPECT_EQ(claims[p], 1) << "page " << p;
  }
}

TEST(MorselSourceTest, ConcurrentClaimsAreDisjoint) {
  HeapTable table;
  const uint32_t kPages = 64;
  for (uint32_t i = 0; i < kPages * kRowsPerPage; ++i) {
    table.Insert(Row{});
  }
  MorselSource source(&table, 4);
  std::vector<std::atomic<int>> claims(kPages);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      Morsel m;
      while (source.Next(&m)) {
        for (uint32_t p = m.page_begin; p < m.page_end; ++p) {
          claims[p].fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (uint32_t p = 0; p < kPages; ++p) {
    EXPECT_EQ(claims[p].load(), 1) << "page " << p;
  }
}

// -- Parallel plans vs serial plans ------------------------------------------

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datablade::Install(&db_).ok());
    ASSERT_TRUE(db_.Execute("SET NOW '1999-11-15'").ok());
    workload::MedicalConfig config;
    // Large enough to span several 8-page (2048-row) morsels, so
    // parallel plans are eligible (kParallelMinRows) and multi-worker
    // claiming and partial-aggregate merging really run.
    config.seed = 77;
    config.rows = 10000;
    config.num_patients = 25;
    config.num_drugs = 8;
    config.now_relative_fraction = 0.3;
    ASSERT_TRUE(workload::SetUpPrescriptionTable(
                    &db_, *datablade::TipTypes::Lookup(db_), config, "rx")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE INDEX rx_valid ON rx (valid) USING interval")
            .ok());
  }

  // Loads a prescription table of `rows` rows named `name`.
  void LoadTable(const std::string& name, int64_t rows, uint64_t seed) {
    workload::MedicalConfig config;
    config.seed = seed;
    config.rows = rows;
    config.num_patients = 25;
    config.num_drugs = 8;
    config.now_relative_fraction = 0.3;
    ASSERT_TRUE(workload::SetUpPrescriptionTable(
                    &db_, *datablade::TipTypes::Lookup(db_), config, name)
                    .ok());
  }

  std::vector<std::string> Rows(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const Row& row : r->rows) {
      std::string line;
      for (const Datum& value : row) {
        line += db_.types().Format(value);
        line += "|";
      }
      out.push_back(std::move(line));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::string ExplainText(const std::string& sql) {
    Result<ResultSet> r = db_.Execute("EXPLAIN " + sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::string text;
    if (!r.ok()) return text;
    for (const Row& row : r->rows) {
      text += row[0].string_value();
      text += "\n";
    }
    return text;
  }

  void ExpectParallelMatchesSerial(const std::string& sql) {
    ASSERT_TRUE(db_.Execute("SET parallel_workers 4").ok());
    EXPECT_NE(ExplainText(sql).find("Parallel("), std::string::npos)
        << sql << " plans no parallel operator";
    ASSERT_TRUE(db_.Execute("SET parallel_workers 1").ok());
    std::vector<std::string> serial = Rows(sql);
    for (int workers : {2, 4, 8}) {
      ASSERT_TRUE(db_.Execute("SET parallel_workers " +
                              std::to_string(workers))
                      .ok());
      EXPECT_EQ(Rows(sql), serial) << sql << " (workers=" << workers << ")";
    }
    ASSERT_TRUE(db_.Execute("SET parallel_workers 1").ok());
  }

  Database db_;
};

TEST_F(ParallelExecTest, FilteredScanMatchesSerial) {
  ExpectParallelMatchesSerial(
      "SELECT patient, drug, dosage FROM rx WHERE dosage >= 40");
}

TEST_F(ParallelExecTest, GlobalCountMatchesSerial) {
  ExpectParallelMatchesSerial("SELECT count(*) FROM rx");
  ExpectParallelMatchesSerial(
      "SELECT count(*), min(dosage), max(dosage), sum(dosage), avg(dosage) "
      "FROM rx WHERE dosage >= 20");
}

// Every mergeable aggregate in its global form, the only aggregation
// that runs in parallel: count, sum over INT and DOUBLE, avg, min, max
// and the DataBlade's group_union, group_intersect and sum over Span.
TEST_F(ParallelExecTest, GlobalMergeableAggregatesMatchSerial) {
  ExpectParallelMatchesSerial(
      "SELECT count(dosage), sum(dosage), sum(dosage * 0.5), avg(dosage), "
      "min(drug), max(dosage) FROM rx");
  ExpectParallelMatchesSerial(
      "SELECT count(*), sum(dosage * 0.5), min(dosage), max(drug) FROM rx "
      "WHERE patient = 'patient0003'");
}

TEST_F(ParallelExecTest, GroupUnionAggregationMatchesSerial) {
  ExpectParallelMatchesSerial(
      "SELECT length(group_union(valid)) / '0 00:00:01'::Span FROM rx");
  ExpectParallelMatchesSerial(
      "SELECT length(group_union(valid)) / '0 00:00:01'::Span FROM rx "
      "WHERE patient = 'patient0003'");
}

TEST_F(ParallelExecTest, GroupIntersectAndSumSpanMatchSerial) {
  ExpectParallelMatchesSerial(
      "SELECT length(group_intersect(valid)) / '0 00:00:01'::Span, "
      "sum(length(valid)) / '0 00:00:01'::Span FROM rx");
  // Every row that passes contains one instant, so the intersection is
  // not empty.
  ExpectParallelMatchesSerial(
      "SELECT length(group_intersect(valid)) / '0 00:00:01'::Span, "
      "sum(length(valid)) / '0 00:00:01'::Span FROM rx "
      "WHERE contains(valid, '1995-03-01'::Chronon)");
}

TEST_F(ParallelExecTest, IntervalJoinMatchesSerial) {
  // Self-join cost is quadratic: use the smallest table that is still
  // eligible (two morsels), so several workers probe the shared index,
  // and a left filter that keeps the probes few.
  LoadTable("rxj", kParallelMinRows, 178);
  ASSERT_TRUE(
      db_.Execute("CREATE INDEX rxj_valid ON rxj (valid) USING interval")
          .ok());
  ExpectParallelMatchesSerial(
      "SELECT count(*) FROM rxj p1, rxj p2 "
      "WHERE p1.drug = 'drug0001' AND p1.dosage = 1 "
      "AND p2.drug = 'drug0002' AND p1.patient = p2.patient "
      "AND overlaps(p1.valid, p2.valid)");
}

TEST_F(ParallelExecTest, EmptyInputGlobalAggregateStillOneRow) {
  ASSERT_TRUE(db_.Execute("SET parallel_workers 4").ok());
  Result<ResultSet> r =
      db_.Execute("SELECT count(*) FROM rx WHERE dosage < 0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].int_value(), 0);
}

TEST_F(ParallelExecTest, ExplainShowsParallelismAndCounters) {
  ASSERT_TRUE(db_.Execute("SET parallel_workers 4").ok());
  const std::string agg =
      "SELECT length(group_union(valid)) / '0 00:00:01'::Span FROM rx";

  std::string plan = ExplainText(agg);
  EXPECT_NE(plan.find("ParallelHashAggregate(rx)"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Parallel(workers=4 pages_per_morsel=8)"),
            std::string::npos)
      << plan;

  // Counters appear after the query has actually executed.
  ASSERT_TRUE(db_.Execute(agg).ok());
  plan = ExplainText(agg);
  EXPECT_NE(plan.find("ParallelStats(runs="), std::string::npos) << plan;
  EXPECT_NE(plan.find("w0{morsels="), std::string::npos) << plan;

  // Serial sessions plan the serial operators.
  ASSERT_TRUE(db_.Execute("SET parallel_workers 1").ok());
  plan = ExplainText(agg);
  EXPECT_EQ(plan.find("Parallel"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HashAggregate"), std::string::npos) << plan;
}

// Only the shapes that pay run in parallel: a filtered scan, a global
// aggregate and the interval join. A bare scan and GROUP BY stay
// serial at any worker count.
TEST_F(ParallelExecTest, PlanShapesAtFourWorkers) {
  ASSERT_TRUE(db_.Execute("SET parallel_workers 4").ok());
  const struct {
    std::string sql;
    std::string op;  // the expected root or scan operator
    bool parallel;
  } cases[] = {
      {"SELECT drug, valid FROM rx WHERE patient = 'patient0003'",
       "ParallelSeqScan(rx)", true},
      {"SELECT count(*) FROM rx", "ParallelHashAggregate(rx)", true},
      {"SELECT count(*) FROM rx p1, rx p2 WHERE p1.drug = 'drug0001' "
       "AND p2.drug = 'drug0002' AND p1.patient = p2.patient "
       "AND overlaps(p1.valid, p2.valid)",
       "ParallelIntervalIndexJoin(rx.valid)", true},
      {"SELECT length(valid) FROM rx", "SeqScan(rx)", false},
      {"SELECT patient, count(*) FROM rx GROUP BY patient", "HashAggregate",
       false},
  };
  for (const auto& c : cases) {
    const std::string plan = ExplainText(c.sql);
    EXPECT_NE(plan.find(c.op), std::string::npos) << c.sql << "\n" << plan;
    EXPECT_EQ(plan.find("Parallel(") != std::string::npos, c.parallel)
        << c.sql << "\n" << plan;
  }
}

// The worker count of the last parallel run recorded against the
// table `plan` scans (EXPLAIN's ParallelStats line), or -1 when none ran.
int LastRunWorkers(const std::string& plan) {
  const size_t stats = plan.find("ParallelStats(");
  if (stats == std::string::npos) return -1;
  const size_t at = plan.find("workers=", stats);
  return std::stoi(plan.substr(at + std::string("workers=").size()));
}

// What a run over a table of two or more morsels uses on this machine:
// the machine's cores, capped at 4 (the tests' cap) and by the table's
// morsels.
int ExpectedWorkers(size_t morsels) {
  return static_cast<int>(
      std::min({size_t{4}, ThreadPool::CoreCount(), morsels}));
}

TEST(ParallelDegreeTest, ChooseWorkersFollowsRowsCapCoresAndMorsels) {
  const size_t rows = 20000;  // 10 morsels
  // A cap of 1, or a table under two morsels, runs one worker.
  EXPECT_EQ(ChooseWorkers(1, rows, 10, 4), 1u);
  EXPECT_EQ(ChooseWorkers(4, kParallelMinRows - 1, 2, 4), 1u);
  // Otherwise the cap, never more than the cores or the morsels.
  EXPECT_EQ(ChooseWorkers(8, rows, 10, 4), 4u);
  EXPECT_EQ(ChooseWorkers(2, rows, 10, 16), 2u);
  EXPECT_EQ(ChooseWorkers(4, kParallelMinRows, 2, 4), 2u);
}

TEST_F(ParallelExecTest, ThresholdKeepsSmallTablesSerial) {
  // One row short of filling two morsels: the parallel operators are
  // planned, but every run uses one worker.
  LoadTable("rxs", kParallelMinRows - 1, 91);
  ASSERT_TRUE(db_.Execute("SET parallel_workers 4").ok());
  for (const std::string sql :
       {"SELECT count(*) FROM rxs",
        "SELECT drug FROM rxs WHERE patient = 'patient0003'"}) {
    ASSERT_TRUE(db_.Execute(sql).ok()) << sql;
    const std::string plan = ExplainText(sql);
    EXPECT_NE(plan.find("Parallel(workers=4"), std::string::npos) << plan;
    EXPECT_EQ(LastRunWorkers(plan), 1) << plan;
  }
}

// A cached plan encodes no row count: the same cached tree runs more
// than one worker once its table grows past two morsels, and one worker
// again after a DELETE shrinks it, with no DDL (and no replan) between.
TEST_F(ParallelExecTest, CachedPlanFollowsTableSize) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE g (x INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO g VALUES (1), (2)").ok());
  ASSERT_TRUE(db_.Execute("SET parallel_workers 4").ok());
  const std::string sql = "SELECT count(*) FROM g WHERE x > 0";
  auto count = [&] {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows[0][0].int_value() : -1;
  };
  EXPECT_EQ(count(), 2);
  EXPECT_EQ(LastRunWorkers(ExplainText(sql)), 1);

  for (int batch = 0; batch < 10; ++batch) {
    std::string insert = "INSERT INTO g VALUES ";
    for (int i = 0; i < 500; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(3 + batch * 500 + i) + ")";
    }
    Result<ResultSet> inserted = db_.Execute(insert);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  }
  const uint64_t misses = db_.plan_cache_stats().misses.load();
  EXPECT_EQ(count(), 5002);
  EXPECT_EQ(db_.plan_cache_stats().misses.load(), misses) << "replanned";
  // 5,002 rows fill three morsels.
  EXPECT_EQ(LastRunWorkers(ExplainText(sql)), ExpectedWorkers(3));

  ASSERT_TRUE(db_.Execute("DELETE FROM g WHERE x > 100").ok());
  EXPECT_EQ(count(), 100);
  EXPECT_EQ(db_.plan_cache_stats().misses.load(), misses) << "replanned";
  EXPECT_EQ(LastRunWorkers(ExplainText(sql)), 1);
}

// A window read keeps its interval index scan at the default cap: the
// parallel operators replace heap scans only.
TEST_F(ParallelExecTest, WindowReadKeepsIndexScanAtDefaultCap) {
  const Params window = {
      {"w", datablade::MakeElement(
                *datablade::TipTypes::Lookup(db_),
                *Element::Parse("{[1995-03-01, 1995-08-27]}"))}};
  const std::string sql = "SELECT drug FROM rx WHERE overlaps(valid, :w)";
  Result<ResultSet> plan = db_.Execute("EXPLAIN " + sql, window);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text;
  for (const Row& row : plan->rows) text += row[0].string_value() + "\n";
  EXPECT_NE(text.find("IntervalIndexScan(rx.valid)"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("Parallel"), std::string::npos) << text;
}

// A morsel operator reads its whole input before it returns a row, so
// a reader that may stop early keeps its scans serial at the default
// cap: a LIMIT that nothing reads to the end first, and every subquery
// (an EXISTS stops at its first row). A LIMIT over an aggregate or an
// ORDER BY still plans the parallel operators.
TEST_F(ParallelExecTest, EarlyStoppingReadersKeepSerialScans) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE g (patient CHAR(20))").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO g VALUES ('patient0003'), "
                          "('patient0004'), ('nobody')")
                  .ok());
  const struct {
    std::string sql;
    bool parallel;
  } cases[] = {
      {"SELECT drug FROM rx WHERE patient = 'patient0003' LIMIT 1", false},
      {"SELECT drug FROM rx WHERE dosage >= 0 LIMIT 2 OFFSET 3", false},
      {"SELECT patient FROM g WHERE EXISTS (SELECT 1 FROM rx "
       "WHERE rx.patient = g.patient AND dosage >= 40)",
       false},
      {"SELECT patient FROM g WHERE NOT EXISTS (SELECT 1 FROM rx "
       "WHERE rx.patient = g.patient AND dosage >= 40)",
       false},
      {"SELECT patient FROM g WHERE patient IN (SELECT patient FROM rx "
       "WHERE dosage >= 40)",
       false},
      {"SELECT patient, (SELECT count(*) FROM rx WHERE rx.patient = "
       "g.patient) FROM g",
       false},
      {"SELECT count(*) FROM rx WHERE dosage >= 40 LIMIT 1", true},
      {"SELECT drug FROM rx WHERE dosage >= 40 ORDER BY drug LIMIT 1", true},
  };
  for (const auto& c : cases) {
    const std::string plan = ExplainText(c.sql);
    EXPECT_EQ(plan.find("Parallel(") != std::string::npos, c.parallel)
        << c.sql << "\n" << plan;
    if (!c.parallel) {
      ASSERT_TRUE(db_.Execute(c.sql).ok()) << c.sql;
    }
  }
  // None of the serial readers above recorded a morsel run against rx.
  EXPECT_EQ(LastRunWorkers(ExplainText("SELECT count(*) FROM rx")), -1);
}

// -- Concurrent sessions + NOW flips -----------------------------------------

// N threads run the same SELECTs against one Database while another
// thread flips the NOW override between two instants. Every result must
// equal the serial result under one of the two NOW values (a statement
// captures its TxContext once, so no mixed states are legal), and the
// one interval index must answer views at both NOWs at once.
TEST_F(ParallelExecTest, ConcurrentQueriesUnderNowFlips) {
  ASSERT_TRUE(db_.Execute("SET parallel_workers 4").ok());
  const std::string kNowA = "1999-11-15";
  const std::string kNowB = "1994-06-01";
  const std::vector<std::string> queries = {
      // Seq-scan aggregation (morsel-parallel).
      "SELECT count(*), sum(dosage) FROM rx WHERE dosage >= 20",
      // Interval-index scan, NOW-dependent probe window.
      "SELECT count(*) FROM rx WHERE overlaps(valid, "
      "'{[1993-01-01, 2001-01-01]}'::Element)",
      // group_union aggregation whose result depends on NOW.
      "SELECT length(group_union(valid)) / '0 00:00:01'::Span FROM rx",
  };

  std::vector<std::vector<std::string>> expect_a, expect_b;
  ASSERT_TRUE(db_.Execute("SET NOW '" + kNowA + "'").ok());
  for (const std::string& q : queries) expect_a.push_back(Rows(q));
  ASSERT_TRUE(db_.Execute("SET NOW '" + kNowB + "'").ok());
  for (const std::string& q : queries) expect_b.push_back(Rows(q));
  ASSERT_TRUE(db_.Execute("SET NOW '" + kNowA + "'").ok());

  constexpr int kReaders = 4;
  constexpr int kIterations = 25;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        for (size_t q = 0; q < queries.size(); ++q) {
          std::vector<std::string> rows = Rows(queries[q]);
          if (rows != expect_a[q] && rows != expect_b[q]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread writer([&] {
    bool use_b = true;
    while (!stop.load()) {
      db_.SetNowOverride(*Chronon::Parse(use_b ? kNowB : kNowA));
      use_b = !use_b;
      std::this_thread::yield();
    }
  });

  for (std::thread& t : readers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// -- UPDATE/DELETE through the morsel driver ----------------------------------

// Durable databases over a table `t (id INT, x INT, valid Element)` of
// several morsels, for the writes that scan through the morsel driver.
class ParallelDmlTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& dir : dirs_) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }

  std::string FreshDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "/tip_parallel_dml_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dirs_.push_back(dir);
    return dir;
  }

  // Opens (or re-opens, strictly) the durable database homed in `dir`.
  static std::unique_ptr<Database> OpenDb(const std::string& dir) {
    auto db = std::make_unique<Database>();
    EXPECT_TRUE(datablade::Install(db.get()).ok());
    Status attached = db->AttachDurableDir(dir);
    EXPECT_TRUE(attached.ok()) << attached.ToString();
    return db;
  }

  static ResultSet Exec(Database* db, const std::string& sql) {
    Result<ResultSet> r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  static std::string Explain(Database* db, const std::string& sql) {
    std::string text;
    for (const Row& row : Exec(db, "EXPLAIN " + sql).rows) {
      text += row[0].string_value() + "\n";
    }
    return text;
  }

  // Every row of `t`, formatted, in scan order.
  static std::vector<std::string> Contents(Database* db) {
    std::vector<std::string> out;
    for (const Row& row : Exec(db, "SELECT id, x, valid FROM t").rows) {
      std::string line;
      for (const Datum& value : row) line += db->types().Format(value) + "|";
      out.push_back(std::move(line));
    }
    return out;
  }

  // Creates `t` and loads ids 0..rows-1 in 500-row INSERTs.
  static void Load(Database* db, int rows) {
    Exec(db, "CREATE TABLE t (id INT, x INT, valid Element)");
    for (int first = 0; first < rows; first += 500) {
      std::string insert = "INSERT INTO t VALUES ";
      for (int id = first; id < std::min(rows, first + 500); ++id) {
        if (id > first) insert += ", ";
        insert += "(" + std::to_string(id) + ", " +
                  std::to_string(id % 97) + ", '" +
                  (id % 3 == 0 ? "{[1990-01-01, NOW]}"
                               : "{[1995-05-05, 1996-06-06]}") +
                  "')";
      }
      Exec(db, insert);
    }
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::vector<std::string> dirs_;
};

// UPDATE and DELETE over four morsels with tombstones in the middle
// change the same rows, report the same counts and log the same WAL
// bytes serially and at the default cap; both directories re-attach
// strictly to the same contents.
TEST_F(ParallelDmlTest, MutationsMatchTheSerialScan) {
  const std::vector<std::string> writes = {
      // Tombstones inside the second and third morsels (x is id % 97).
      "DELETE FROM t WHERE id > 2500 AND id < 4500 AND x < 30",
      "UPDATE t SET x = x + id, valid = intersect(valid, "
      "'{[1995-01-01, 1999-01-01]}'::Element) WHERE x > 80",
      "DELETE FROM t WHERE x = 5 OR x = 50",
      "UPDATE t SET x = 0 - x WHERE x > 3000",
      "UPDATE t SET x = 1 WHERE id = -1",  // matches nothing
  };
  struct Run {
    std::string dir;
    std::vector<int64_t> affected;
    std::vector<std::string> contents;
  };
  std::vector<Run> runs;
  for (const bool serial : {true, false}) {
    Run run{FreshDir(serial ? "serial" : "default"), {}, {}};
    std::unique_ptr<Database> db = OpenDb(run.dir);
    Load(db.get(), 7000);
    if (serial) Exec(db.get(), "SET parallel_workers 1");
    for (const std::string& sql : writes) {
      run.affected.push_back(Exec(db.get(), sql).affected_rows);
    }
    run.contents = Contents(db.get());
    // EXPLAIN shows the last parallel run against t: the last UPDATE's.
    const int workers = LastRunWorkers(
        Explain(db.get(), "SELECT count(*) FROM t WHERE x > 0"));
    if (serial || ThreadPool::CoreCount() < 2) {
      EXPECT_EQ(workers, -1) << "a serial session recorded a parallel run";
    } else {
      EXPECT_EQ(workers, ExpectedWorkers(4));
    }
    runs.push_back(std::move(run));
  }
  EXPECT_EQ(runs[0].affected, runs[1].affected);
  EXPECT_GT(runs[0].affected[0], 0);
  EXPECT_EQ(runs[0].affected.back(), 0);
  EXPECT_EQ(runs[0].contents, runs[1].contents);
  EXPECT_EQ(ReadFile(runs[0].dir + "/wal.log"),
            ReadFile(runs[1].dir + "/wal.log"));
  for (const Run& run : runs) {
    std::unique_ptr<Database> reopened = OpenDb(run.dir);
    EXPECT_EQ(Contents(reopened.get()), run.contents) << run.dir;
  }
}

// A side effect never runs on several threads: a WHERE that calls
// tip_checkpoint(), directly or through a CREATE FUNCTION wrapper,
// keeps a SELECT's and an UPDATE's scan serial.
TEST_F(ParallelDmlTest, SerialOnlyRoutinesKeepScansSerial) {
  std::unique_ptr<Database> db = OpenDb(FreshDir("serial_only"));
  Load(db.get(), 5000);
  Exec(db.get(), "SET parallel_workers 4");
  Exec(db.get(), "CREATE FUNCTION ck(x INT) RETURNS INT AS "
                 "'tip_checkpoint() + x'");
  auto explain = [&](const std::string& sql) {
    return Explain(db.get(), sql);
  };
  // The same scan without the routine plans a parallel operator.
  const std::string plain = "SELECT count(*) FROM t WHERE x >= 0";
  ASSERT_NE(explain(plain).find("Parallel("), std::string::npos);

  auto checkpoints = [&] {
    return Exec(db.get(), "SELECT tip_wal_stats('checkpoints')")
        .rows[0][0]
        .int_value();
  };
  const int64_t before = checkpoints();
  for (const std::string call : {"tip_checkpoint()", "ck(0)"}) {
    // Only the row with id 7 calls the routine.
    const std::string where =
        " WHERE CASE WHEN id = 7 THEN " + call + " > 0 ELSE false END";
    const std::string select = "SELECT count(*) FROM t" + where;
    EXPECT_EQ(explain(select).find("Parallel"), std::string::npos)
        << select;
    EXPECT_EQ(Exec(db.get(), select).rows[0][0].int_value(), 1);
    EXPECT_EQ(Exec(db.get(), "UPDATE t SET x = x + 1" + where).affected_rows,
              1);
  }
  EXPECT_EQ(checkpoints(), before + 4);
  // No statement above recorded a parallel run against t.
  EXPECT_EQ(LastRunWorkers(explain(plain)), -1);
}

// The server's gate takes the same flag: a SELECT that calls a
// serial_only routine, directly, through a CREATE FUNCTION wrapper or
// in a subquery, is a writer; naming one in a string literal is not.
TEST_F(ParallelDmlTest, SerialOnlyRoutinesClassifyAsWriters) {
  Database db;
  ASSERT_TRUE(datablade::Install(&db).ok());
  Exec(&db, "CREATE TABLE t (id INT)");
  Exec(&db, "CREATE FUNCTION ck(x INT) RETURNS INT AS "
            "'tip_checkpoint() + x'");
  auto classify = [&db](const std::string& sql) {
    Result<Statement> stmt = ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << sql << " -> " << stmt.status().ToString();
    return stmt.ok() ? db.Classify(*stmt) : StatementClass::kReader;
  };
  for (const std::string writer :
       {"SELECT tip_checkpoint()", "SELECT TIP_SYNC_WAL()",
        "EXPLAIN SELECT tip_verify()", "SELECT ck(0)",
        "SELECT id FROM t WHERE id IN (SELECT ck(id) FROM t)",
        "SELECT id FROM (SELECT id FROM t WHERE ck(id) > 0) d"}) {
    EXPECT_EQ(classify(writer), StatementClass::kWriter) << writer;
  }
  for (const std::string reader :
       {"SELECT id FROM t", "SELECT 'tip_checkpoint()' FROM t",
        "SELECT abs(id) FROM t"}) {
    EXPECT_EQ(classify(reader), StatementClass::kReader) << reader;
  }
  Exec(&db, "DROP FUNCTION ck");
  EXPECT_EQ(classify("SELECT ck(0)"), StatementClass::kReader);
}

// The server classifies a statement before it takes the gate, so the
// lookup must hold while another session creates and drops functions.
TEST_F(ParallelDmlTest, ClassifyRacesFunctionDdlSafely) {
  Database db;
  ASSERT_TRUE(datablade::Install(&db).ok());
  Result<Statement> stmt = ParseStatement("SELECT f(1)");
  ASSERT_TRUE(stmt.ok());
  std::atomic<bool> done{false};
  std::thread ddl([&] {
    for (int i = 0; i < 200; ++i) {
      Exec(&db, "CREATE FUNCTION f(x INT) RETURNS INT AS 'x + 1'");
      Exec(&db, "DROP FUNCTION f");
    }
    done.store(true);
  });
  while (!done.load()) (void)db.Classify(*stmt);
  ddl.join();
  EXPECT_EQ(db.Classify(*stmt), StatementClass::kReader);
}

}  // namespace
}  // namespace tip::engine
