// ThreadPool error propagation and the engine's graceful degradation:
// a worker's Status or exception must surface as the fork-join's first
// error, an injected dispatch fault must fall back to inline
// execution, and a parallel plan whose worker dies must retry serially
// and still produce the right answer.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "datablade/datablade.h"
#include "engine/database.h"

namespace tip {
namespace {

TEST(ThreadPoolFaultTest, FirstErrorByWorkerIndexWins) {
  ThreadPool pool(4);
  Status s = pool.RunOnWorkers(4, [](size_t w) -> Status {
    if (w == 3) return Status::Internal("worker three failed");
    if (w == 1) return Status::InvalidArgument("worker one failed");
    return Status::OK();
  });
  ASSERT_FALSE(s.ok());
  // Both workers failed; the LOWEST index is reported, making the
  // result deterministic regardless of scheduling.
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("worker one"), std::string::npos);
}

TEST(ThreadPoolFaultTest, WorkerExceptionBecomesStatus) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  Status s = pool.RunOnWorkers(2, [&ran](size_t w) -> Status {
    ran.fetch_add(1);
    if (w == 1) throw std::runtime_error("boom");
    return Status::OK();
  });
  EXPECT_EQ(ran.load(), 2);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("worker exception"), std::string::npos);
  EXPECT_NE(s.message().find("boom"), std::string::npos);
  // The pool survives the exception and keeps serving.
  EXPECT_TRUE(pool.RunOnWorkers(2, [](size_t) { return Status::OK(); })
                  .ok());
}

TEST(ThreadPoolFaultTest, DispatchFaultRunsTaskInline) {
  fault::ClearAll();
  ThreadPool pool(2);
  // Arm the dispatch point: the submit must degrade to running the
  // task on the caller, not lose it.
  fault::InjectAt("threadpool.dispatch", 0);
  std::atomic<int> ran{0};
  Status s = pool.RunOnWorkers(2, [&ran](size_t) -> Status {
    ran.fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(ran.load(), 2);
  fault::ClearAll();
}

TEST(ThreadPoolFaultTest, ApproxAvailableTracksLoad) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.ApproxAvailable(), 3u);
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  // A fork-join held open from an outside thread keeps two pool
  // workers busy (worker 0 is the outside thread itself).
  std::thread runner([&] {
    Status s = pool.RunOnWorkers(3, [&](size_t) -> Status {
      started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      return Status::OK();
    });
    EXPECT_TRUE(s.ok());
  });
  while (started.load() < 3) std::this_thread::yield();
  EXPECT_LE(pool.ApproxAvailable(), 1u);
  release.store(true);
  runner.join();
  // Pool threads re-idle shortly after the join completes.
  for (int i = 0; i < 2000 && pool.ApproxAvailable() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.ApproxAvailable(), 3u);
}

class ParallelFallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::ClearAll();
    ASSERT_TRUE(datablade::Install(&db_).ok());
    Exec("SET NOW '1999-11-15'");
    Exec("SET parallel_workers 4");
    Exec("CREATE TABLE t (id INT, grp INT)");
    // Parallel plans need a table whose rows fill two 2048-row morsels.
    for (int batch = 0; batch < 10; ++batch) {
      std::string insert = "INSERT INTO t VALUES ";
      for (int i = 0; i < 512; ++i) {
        const int id = batch * 512 + i;
        if (i > 0) insert += ", ";
        insert +=
            "(" + std::to_string(id) + ", " + std::to_string(id % 5) + ")";
      }
      Exec(insert);
    }
  }

  void TearDown() override { fault::ClearAll(); }

  engine::ResultSet Exec(std::string_view sql) {
    Result<engine::ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : engine::ResultSet{};
  }

  std::string Explain(std::string_view sql) {
    std::string plan;
    for (const engine::Row& row : Exec("EXPLAIN " + std::string(sql)).rows) {
      plan += row[0].string_value() + "\n";
    }
    return plan;
  }

  engine::Database db_;
};

constexpr char kParallelQuery[] =
    "SELECT count(*), sum(id), min(id), max(id) FROM t WHERE grp <> 2";

TEST_F(ParallelFallbackTest, DeadWorkerRetriesSeriallyWithSameAnswer) {
  const std::string plan = Explain(kParallelQuery);
  ASSERT_NE(plan.find("ParallelHashAggregate"), std::string::npos) << plan;
  const engine::ResultSet expect = Exec(kParallelQuery);
  const int64_t before =
      Exec("SELECT tip_guard_stats('parallel_fallbacks')")
          .rows[0][0].int_value();
  // Kill the first parallel worker launched: the operator must retry
  // the whole fork-join serially and return the identical result.
  fault::InjectAt("parallel.worker", 0);
  const engine::ResultSet got = Exec(kParallelQuery);
  ASSERT_EQ(got.rows.size(), 1u);
  for (size_t i = 0; i < expect.rows[0].size(); ++i) {
    EXPECT_EQ(got.rows[0][i].int_value(), expect.rows[0][i].int_value());
  }
  const int64_t after =
      Exec("SELECT tip_guard_stats('parallel_fallbacks')")
          .rows[0][0].int_value();
  EXPECT_GE(after, before + 1);
}

TEST_F(ParallelFallbackTest, DeadWorkerOnSaturatedPoolRetries) {
  // A saturated shared pool plans the parallel operator at n = 1, on
  // the calling thread alone; a worker crash there must get the same
  // serial retry instead of failing the statement. A fork-join held
  // open from an outside thread takes the whole pool: each held body
  // runs on a pool thread or waits in its queue, and both count as
  // busy.
  ThreadPool& pool = ThreadPool::Shared();
  std::atomic<bool> release{false};
  std::thread holder([&] {
    Status s = pool.RunOnWorkers(pool.max_threads() + 1,
                                 [&](size_t) -> Status {
                                   while (!release.load()) {
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(1));
                                   }
                                   return Status::OK();
                                 });
    EXPECT_TRUE(s.ok());
  });
  for (int i = 0; i < 10000 && pool.ApproxAvailable() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const size_t available = pool.ApproxAvailable();

  const int64_t before =
      Exec("SELECT tip_guard_stats('parallel_fallbacks')")
          .rows[0][0].int_value();
  fault::InjectAt("parallel.worker", 0);
  const engine::ResultSet got = Exec(kParallelQuery);
  release.store(true);
  holder.join();
  EXPECT_EQ(available, 0u);
  ASSERT_EQ(got.rows.size(), 1u);
  // grp = id % 5 over ids 0..5119: four of every five ids pass.
  EXPECT_EQ(got.rows[0][0].int_value(), 4096);
  const int64_t after =
      Exec("SELECT tip_guard_stats('parallel_fallbacks')")
          .rows[0][0].int_value();
  // One fallback for the saturated pool, one for the retry.
  EXPECT_GE(after, before + 2);
}

}  // namespace
}  // namespace tip
