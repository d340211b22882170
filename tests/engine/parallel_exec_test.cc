#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/exec/parallel_exec.h"
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

TEST_F(ParallelExecTest, ThresholdKeepsSmallTablesSerial) {
  // One row short of filling two morsels.
  LoadTable("rxs", kParallelMinRows - 1, 91);
  ASSERT_TRUE(db_.Execute("SET parallel_workers 4").ok());
  for (const std::string sql :
       {"SELECT count(*) FROM rxs",
        "SELECT drug FROM rxs WHERE patient = 'patient0003'"}) {
    const std::string plan = ExplainText(sql);
    EXPECT_EQ(plan.find("Parallel"), std::string::npos) << plan;
  }
}

// -- Concurrent sessions + NOW flips -----------------------------------------

// N threads run the same SELECTs against one Database while another
// thread flips the NOW override between two instants. Every result must
// equal the serial result under one of the two NOW values (a statement
// captures its TxContext once, so no mixed states are legal), and the
// interval index must survive the overlay rebuilds this provokes.
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

}  // namespace
}  // namespace tip::engine
