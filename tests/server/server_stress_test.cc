// Multi-session stress for the network front-end, meant to run under
// ASan and TSan (scripts/check_sanitizers.sh includes the `server`
// label): N remote sessions hammer one server with mixed DML,
// transactions, per-session SET NOW / guardrail changes and CHECK
// scrubs, then the server drains cleanly underneath them. The
// assertions are deliberately coarse — the point is that the sanitizers
// observe the whole session/gate/drain machinery under contention and
// find no races, leaks or lock misuse.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/connection.h"
#include "common/fault_injection.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "server/server.h"

namespace tip::server {
namespace {

using client::Connection;

TEST(ServerStressTest, ManySessionsMixedTrafficThenCleanShutdown) {
  fault::ClearAll();
  auto db = std::make_unique<engine::Database>();
  ASSERT_TRUE(datablade::Install(db.get()).ok());
  ServerOptions options;
  options.max_sessions = 8;
  options.lock_wait_ms = 30000;  // contention, not spurious busy errors
  Result<std::unique_ptr<Server>> started =
      Server::Start(db.get(), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> server = std::move(*started);

  {
    Result<std::unique_ptr<Connection>> setup =
        Connection::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    ASSERT_TRUE((*setup)
                    ->Execute("CREATE TABLE t (id INT, who INT, "
                              "valid Element)")
                    .ok());
  }

  constexpr int kSessions = 6;
  constexpr int kRounds = 25;
  std::atomic<int> committed{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kSessions);
  for (int w = 0; w < kSessions; ++w) {
    workers.emplace_back([&, w] {
      Result<std::unique_ptr<Connection>> conn =
          Connection::Connect("127.0.0.1", server->port());
      if (!conn.ok()) {
        failures.fetch_add(1);
        return;
      }
      Connection* c = conn->get();
      // Per-session colour: each worker pins its own NOW and timeout
      // so the settings swap runs on every statement of every session.
      Result<Chronon> now =
          Chronon::Parse("199" + std::to_string(w % 10) + "-06-15");
      if (now.ok() && !c->SetNow(*now).ok()) failures.fetch_add(1);
      if (!c->SetStatementTimeoutMs(20000 + w).ok()) failures.fetch_add(1);

      for (int round = 0; round < kRounds; ++round) {
        const int id = w * 1000 + round;
        switch (round % 5) {
          case 0:
          case 1: {
            // Auto-commit insert.
            if (c->Execute("INSERT INTO t VALUES (" + std::to_string(id) +
                           ", " + std::to_string(w) +
                           ", '{[1995-01-01, NOW]}')")
                    .ok()) {
              committed.fetch_add(1);
            }
            break;
          }
          case 2: {
            // A short transaction, committed or rolled back by parity.
            if (!c->Begin().ok()) break;
            bool ok =
                c->Execute("INSERT INTO t VALUES (" + std::to_string(id) +
                           ", " + std::to_string(w) + ", NULL)")
                    .ok();
            if (ok && round % 2 == 0) {
              if (c->Commit().ok()) committed.fetch_add(1);
            } else {
              (void)c->Rollback();
            }
            break;
          }
          case 3: {
            // Reads + the session's own view of NOW.
            (void)c->Execute("SELECT count(*) FROM t WHERE who = " +
                             std::to_string(w));
            (void)c->Execute(
                "SELECT count(*) FROM t WHERE "
                "contains(valid, transaction_time())");
            break;
          }
          case 4: {
            // Integrity scrub and stats traffic from inside a session.
            (void)c->Execute("CHECK TABLE t");
            (void)c->Execute("SELECT tip_server_stats()");
            break;
          }
        }
        if (!c->alive()) {
          failures.fetch_add(1);
          return;
        }
      }
      // Half the sessions leave politely before the drain; the rest
      // are still connected when Shutdown runs.
      if (w % 2 == 0) conn->reset();
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(committed.load(), 0);

  server->Shutdown();
  server.reset();

  // The engine survived the stampede: counts are sane and every
  // committed row is visible embedded.
  Result<engine::ResultSet> rows = db->Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GE(rows->rows[0][0].int_value(), committed.load());
  const engine::ServerStatsCounters& stats = db->server_stats();
  EXPECT_EQ(stats.sessions_active.load(), 0u);
  EXPECT_GE(stats.sessions_total.load(),
            static_cast<uint64_t>(kSessions));
  EXPECT_GE(stats.statements_served.load(),
            static_cast<uint64_t>(kSessions * kRounds));
  EXPECT_EQ(stats.drains.load(), 1u);
}

TEST(ServerStressTest, ConnectDisconnectChurn) {
  // Session churn against a small pool: connects race admissions,
  // goodbyes race the reaper. Every connection either serves or is
  // explicitly refused — no hangs, no crashes.
  fault::ClearAll();
  auto db = std::make_unique<engine::Database>();
  ASSERT_TRUE(datablade::Install(db.get()).ok());
  ServerOptions options;
  options.max_sessions = 3;
  options.admission_wait_ms = 2000;
  Result<std::unique_ptr<Server>> started =
      Server::Start(db.get(), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> server = std::move(*started);

  std::atomic<int> served{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> churners;
  for (int w = 0; w < 6; ++w) {
    churners.emplace_back([&] {
      for (int i = 0; i < 12; ++i) {
        Result<std::unique_ptr<Connection>> conn =
            Connection::Connect("127.0.0.1", server->port());
        if (!conn.ok()) {
          refused.fetch_add(1);
          continue;
        }
        if ((*conn)->Execute("SELECT tip_server_stats('sessions_active')")
                .ok()) {
          served.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : churners) t.join();
  EXPECT_GT(served.load(), 0);
  server->Shutdown();
  EXPECT_EQ(db->server_stats().sessions_active.load(), 0u);
}

}  // namespace
}  // namespace tip::server
