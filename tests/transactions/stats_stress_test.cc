// Stats-reader stress: every stats routine's formatted line and some
// by-name counters are read from reader threads while one writer drives
// transactions, checkpoints and guard trips on the same Database. Run
// under TSan (ctest -L concurrency in a -DTIP_SANITIZE=thread build)
// this is the regression test for unsynchronized counter access: the
// durability counters must be atomics, not plain integers.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datablade/datablade.h"
#include "engine/database.h"

namespace tip::engine {
namespace {

TEST(StatsStressTest, ReadersRaceTransactionsCheckpointsAndCancels) {
  const std::string dir =
      ::testing::TempDir() + "/tip_stats_stress";
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);

  auto db = std::make_unique<Database>();
  ASSERT_TRUE(datablade::Install(db.get()).ok());
  ASSERT_TRUE(db->AttachDurableDir(dir).ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT)").ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  // Readers touch only the observability surface: the stats builtins,
  // whose counter lists all read live counters. Table data stays
  // writer-private (the engine's contract), the counters are the shared
  // state under test.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&db, &stop, &reads] {
      const char* queries[] = {
          "SELECT tip_wal_stats()",
          "SELECT tip_wal_stats('txns_committed')",
          "SELECT tip_wal_stats('checkpoints')",
          "SELECT tip_guard_stats()",
          "SELECT tip_guard_stats('timeouts')",
          "SELECT tip_plan_stats()",
          "SELECT tip_health()",
          "SELECT tip_server_stats()",
      };
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Result<ResultSet> result =
            db->Execute(queries[i++ % std::size(queries)]);
        // The canceller may legitimately interrupt a read; anything
        // else is a real failure.
        EXPECT_TRUE(result.ok() ||
                    result.status().code() == StatusCode::kCancelled)
            << result.status().ToString();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // A canceller pokes the thread-safe cancellation path; it mostly hits
  // nothing, occasionally interrupts a reader, never corrupts counters.
  std::thread canceller([&db, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      db->CancelActiveStatements();
      std::this_thread::sleep_for(std::chrono::milliseconds(7));
    }
  });

  // The writer (this thread, keeping writes single-threaded per the
  // engine contract) commits, rolls back, trips a statement timeout and
  // checkpoints, bumping every counter family the readers poll. The
  // timeout is set on a session of the writer's own: the readers run on
  // the global session, and a stats read slower than 5 ms must not trip
  // it.
  SessionContext sleeper;
  sleeper.statement_timeout_ms = 5;
  for (int round = 0; round < 40; ++round) {
    ASSERT_TRUE(db->BeginTransaction().ok());
    (void)db->Execute("INSERT INTO t VALUES (" + std::to_string(round) +
                      ")");
    if (round % 3 == 0) {
      (void)db->RollbackTransaction();
    } else if (db->InTransaction()) {
      (void)db->CommitTransaction();
    }
    if (round % 5 == 4) {
      Status checkpointed = db->Checkpoint();
      EXPECT_TRUE(checkpointed.ok()) << checkpointed.ToString();
    }
    if (round % 10 == 9) {
      // The timeout trips, unless the canceller gets there first.
      Result<ResultSet> tripped =
          db->Execute("SELECT tip_sleep_ms(50)", nullptr, &sleeper);
      EXPECT_TRUE(!tripped.ok() &&
                  (tripped.status().code() == StatusCode::kDeadlineExceeded ||
                   tripped.status().code() == StatusCode::kCancelled))
          << (tripped.ok() ? "OK" : tripped.status().ToString());
    }
  }

  // Let the readers overlap the tail of the writer work, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (std::thread& t : readers) t.join();
  canceller.join();

  EXPECT_GT(reads.load(), 0u);
  const DurabilityStats stats = db->durability_stats();
  EXPECT_GT(stats.txns_committed, 0u);
  EXPECT_GT(stats.txns_rolled_back, 0u);
  EXPECT_GT(stats.checkpoints, 0u);

  std::filesystem::remove_all(dir, ignored);
}

}  // namespace
}  // namespace tip::engine
