// The shared/exclusive gate's contract (DESIGN.md §13), tested over
// real loopback sockets: read statements from many sessions overlap;
// writers exclude everyone; read-only transactions hold the gate shared
// and upgrade at their first write; a symmetric upgrade race is refused
// ("upgrade would deadlock"), not deadlocked; every session grounds NOW
// from its own SessionContext even while racing a writer; and the whole
// surface is observable via the gate_* counters. Runs under ASan and
// TSan (the `concurrency` label) — the races here are the point.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/connection.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "server/server.h"

namespace tip::server {
namespace {

using client::Connection;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class ServerConcurrencyTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  void StartServer(ServerOptions options = ServerOptions(),
                   const std::string& durable_dir = "") {
    db_ = std::make_unique<engine::Database>();
    ASSERT_TRUE(datablade::Install(db_.get()).ok());
    if (!durable_dir.empty()) {
      ASSERT_TRUE(db_->AttachDurableDir(durable_dir).ok());
    }
    Result<std::unique_ptr<Server>> server =
        Server::Start(db_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  std::unique_ptr<Connection> Connect() {
    Result<std::unique_ptr<Connection>> conn =
        Connection::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    return conn.ok() ? std::move(*conn) : nullptr;
  }

  static client::ResultSet Exec(Connection* conn,
                                const std::string& sql) {
    Result<client::ResultSet> r = conn->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r)
                  : client::ResultSet(engine::ResultSet{}, conn->tip_types(),
                                      &conn->types());
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<Server> server_;
};

// ---- Reader overlap --------------------------------------------------------

// Two sessions sleeping 300ms each finish in well under 600ms: the
// shared gate admits both at once. This is the tentpole in one assert —
// under the old exclusive gate the sleeps serialize.
TEST_F(ServerConcurrencyTest, ConcurrentReadersOverlap) {
  StartServer();
  std::unique_ptr<Connection> a = Connect();
  std::unique_ptr<Connection> b = Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  const int64_t start = NowMs();
  std::thread other([&] { Exec(b.get(), "SELECT tip_sleep_ms(300)"); });
  Exec(a.get(), "SELECT tip_sleep_ms(300)");
  other.join();
  const int64_t elapsed = NowMs() - start;
  EXPECT_LT(elapsed, 550) << "readers serialized: " << elapsed << "ms";

  EXPECT_GE(
      Exec(a.get(), "SELECT tip_server_stats('gate_shared')").GetInt(0, 0),
      2);
}

// The escape hatch: with exclusive_gate on, the same two sleeps
// serialize — the PR 9 behavior, kept as the bench baseline.
TEST_F(ServerConcurrencyTest, ExclusiveGateOptionForcesSerialization) {
  ServerOptions options;
  options.exclusive_gate = true;
  StartServer(options);
  std::unique_ptr<Connection> a = Connect();
  std::unique_ptr<Connection> b = Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  const int64_t start = NowMs();
  std::thread other([&] { Exec(b.get(), "SELECT tip_sleep_ms(200)"); });
  Exec(a.get(), "SELECT tip_sleep_ms(200)");
  other.join();
  EXPECT_GE(NowMs() - start, 390);
}

// ---- Writers exclude -------------------------------------------------------

TEST_F(ServerConcurrencyTest, WriterExcludesReaders) {
  ServerOptions options;
  options.lock_wait_ms = 120;
  StartServer(options);
  std::unique_ptr<Connection> writer = Connect();
  std::unique_ptr<Connection> reader = Connect();
  ASSERT_NE(writer, nullptr);
  ASSERT_NE(reader, nullptr);
  Exec(writer.get(), "CREATE TABLE t (id INT)");

  // The INSERT upgrades the writer's transaction to exclusive; from
  // then until COMMIT every reader gets the bounded "server busy".
  ASSERT_TRUE(writer->Begin().ok());
  Exec(writer.get(), "INSERT INTO t VALUES (1)");
  Result<client::ResultSet> busy = reader->Execute("SELECT count(*) FROM t");
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.status().code(), StatusCode::kResourceExhausted)
      << busy.status().ToString();
  EXPECT_NE(busy.status().message().find("busy"), std::string::npos);

  ASSERT_TRUE(writer->Commit().ok());
  EXPECT_EQ(Exec(reader.get(), "SELECT count(*) FROM t").GetInt(0, 0), 1);
  EXPECT_GE(Exec(reader.get(), "SELECT tip_server_stats('gate_busy_shared')")
                .GetInt(0, 0),
            1);
}

// ---- Transactions hold shared until their first write ----------------------

TEST_F(ServerConcurrencyTest, ReadOnlyTransactionsOverlap) {
  ServerOptions options;
  options.lock_wait_ms = 120;  // any blocking would surface as busy
  StartServer(options);
  std::unique_ptr<Connection> a = Connect();
  std::unique_ptr<Connection> b = Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Exec(a.get(), "CREATE TABLE t (id INT)");
  Exec(a.get(), "INSERT INTO t VALUES (1)");

  // Two sessions sit in open transactions at once — impossible under
  // the exclusive gate, routine under shared holds.
  ASSERT_TRUE(a->Begin().ok());
  ASSERT_TRUE(b->Begin().ok());
  EXPECT_EQ(Exec(a.get(), "SELECT count(*) FROM t").GetInt(0, 0), 1);
  EXPECT_EQ(Exec(b.get(), "SELECT count(*) FROM t").GetInt(0, 0), 1);
  ASSERT_TRUE(a->Commit().ok());
  ASSERT_TRUE(b->Commit().ok());
}

TEST_F(ServerConcurrencyTest, TransactionUpgradesAtFirstWrite) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Exec(conn.get(), "CREATE TABLE t (id INT)");

  ASSERT_TRUE(conn->Begin().ok());
  Exec(conn.get(), "SELECT count(*) FROM t");  // still shared
  Exec(conn.get(), "INSERT INTO t VALUES (1)");  // upgrade happens here
  Exec(conn.get(), "INSERT INTO t VALUES (2)");  // already exclusive
  ASSERT_TRUE(conn->Commit().ok());

  EXPECT_EQ(Exec(conn.get(), "SELECT count(*) FROM t").GetInt(0, 0), 2);
  EXPECT_EQ(
      Exec(conn.get(), "SELECT tip_server_stats('gate_upgrades')")
          .GetInt(0, 0),
      1);
}

// Two shared transactions racing to write: the first queues as the
// upgrader, the second is refused immediately with an explicit
// "deadlock" error — and its transaction survives, still readable.
TEST_F(ServerConcurrencyTest, UpgradeDeadlockRefusedNotDeadlocked) {
  StartServer();
  std::unique_ptr<Connection> a = Connect();
  std::unique_ptr<Connection> b = Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Exec(a.get(), "CREATE TABLE t (id INT)");

  ASSERT_TRUE(a->Begin().ok());
  ASSERT_TRUE(b->Begin().ok());
  Exec(a.get(), "SELECT count(*) FROM t");
  Exec(b.get(), "SELECT count(*) FROM t");

  // A's INSERT parks as the upgrader, waiting for B's shared hold.
  std::atomic<bool> a_done{false};
  std::thread upgrade([&] {
    Result<client::ResultSet> r = a->Execute("INSERT INTO t VALUES (1)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    a_done.store(true);
  });
  // Give A time to reach the upgrade slot before B collides with it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Result<client::ResultSet> refused = b->Execute("INSERT INTO t VALUES (2)");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("deadlock"), std::string::npos)
      << refused.status().ToString();
  EXPECT_FALSE(a_done.load());  // A is still parked, not deadlocked

  // B's transaction is intact read-only; releasing it unblocks A.
  EXPECT_EQ(Exec(b.get(), "SELECT count(*) FROM t").GetInt(0, 0), 0);
  ASSERT_TRUE(b->Rollback().ok());
  upgrade.join();
  EXPECT_TRUE(a_done.load());
  ASSERT_TRUE(a->Commit().ok());
  EXPECT_EQ(Exec(b.get(), "SELECT count(*) FROM t").GetInt(0, 0), 1);
}

// ---- Per-session grounding under races -------------------------------------

// The stress scenario the SessionContext refactor exists for: 8 readers
// pin 8 distinct NOW values and hammer a currency predicate while one
// writer inserts rows and drives scrub ticks. Every reader must see its
// own grounding on every read — a bleed of one session's NOW (the old
// swap-into-global-fields trick) fails the per-reader asserts. TSan
// runs this with the `concurrency` label.
TEST_F(ServerConcurrencyTest, DistinctNowReadersRaceOneWriter) {
  // Durable so the writer's tip_checkpoint calls actually checkpoint
  // (and scrub-tick) rather than being refused; fresh each run.
  const std::string dir = ::testing::TempDir() + "/tip_conc_now_race";
  std::filesystem::remove_all(dir);
  StartServer(ServerOptions(), dir);
  std::unique_ptr<Connection> admin = Connect();
  ASSERT_NE(admin, nullptr);
  Exec(admin.get(), "CREATE TABLE epochs (id INT, valid Element)");
  // Row i is current exactly during year 1990+i.
  for (int i = 0; i < 8; ++i) {
    const std::string year = std::to_string(1990 + i);
    Exec(admin.get(), "INSERT INTO epochs VALUES (" + std::to_string(i) +
                          ", '{[" + year + "-01-01, " + year +
                          "-12-31]}')");
  }
  Exec(admin.get(), "SET scrub on");

  constexpr int kReaders = 8;
  constexpr int kReads = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::unique_ptr<Connection> conn = Connect();
      if (conn == nullptr) {
        failures.fetch_add(1);
        return;
      }
      const std::string now = std::to_string(1990 + r) + "-06-15";
      Result<Chronon> when = Chronon::Parse(now);
      ASSERT_TRUE(when.ok());
      if (!conn->SetNow(*when).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kReads; ++i) {
        // Exactly one epoch row is current under this session's NOW —
        // and it is this session's row, not whatever NOW a concurrent
        // session set.
        Result<client::ResultSet> rs = conn->Execute(
            "SELECT id FROM epochs "
            "WHERE contains(valid, transaction_time())");
        if (!rs.ok() || rs->row_count() != 1 || rs->GetInt(0, 0) != r) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  std::thread writer([&] {
    std::unique_ptr<Connection> conn = Connect();
    if (conn == nullptr) {
      failures.fetch_add(1);
      return;
    }
    for (int i = 0; i < 10; ++i) {
      if (!conn->Execute("INSERT INTO epochs VALUES (" +
                         std::to_string(100 + i) +
                         ", '{[2100-01-01, 2100-12-31]}')")
               .ok()) {
        failures.fetch_add(1);
        return;
      }
      // tip_checkpoint is classified a writer (and with SET scrub on it
      // also scrub-ticks), so integrity churn joins the race too.
      if (i % 4 == 3 && !conn->Execute("SELECT tip_checkpoint()").ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Exec(admin.get(), "SELECT count(*) FROM epochs").GetInt(0, 0),
            18);
}

// ---- Observability ---------------------------------------------------------

TEST_F(ServerConcurrencyTest, GateCountersObservable) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Exec(conn.get(), "CREATE TABLE t (id INT)");   // exclusive
  Exec(conn.get(), "INSERT INTO t VALUES (1)");  // exclusive
  Exec(conn.get(), "SELECT count(*) FROM t");    // shared

  EXPECT_GE(
      Exec(conn.get(), "SELECT tip_server_stats('gate_shared')").GetInt(0, 0),
      1);
  EXPECT_GE(Exec(conn.get(), "SELECT tip_server_stats('gate_exclusive')")
                .GetInt(0, 0),
            2);
  EXPECT_EQ(Exec(conn.get(), "SELECT tip_server_stats('gate_upgrades')")
                .GetInt(0, 0),
            0);
  // Wait totals and busy counts exist (zero here — nothing contended).
  EXPECT_GE(Exec(conn.get(),
                 "SELECT tip_server_stats('gate_wait_exclusive_ms')")
                .GetInt(0, 0),
            0);
  EXPECT_EQ(Exec(conn.get(), "SELECT tip_server_stats('gate_busy_exclusive')")
                .GetInt(0, 0),
            0);
  const std::string formatted =
      Exec(conn.get(), "SELECT tip_server_stats()").GetString(0, 0);
  EXPECT_NE(formatted.find("gate_shared="), std::string::npos) << formatted;
  EXPECT_NE(formatted.find("gate_upgrades="), std::string::npos) << formatted;

  // Readers queue behind short writer holds. Each hold is well under a
  // millisecond, so the waits only add up if every acquisition's wait
  // is kept at a finer grain than the milliseconds reported.
  const int64_t waited_before =
      Exec(conn.get(), "SELECT tip_server_stats('gate_wait_shared_ms')")
          .GetInt(0, 0);
  std::vector<std::unique_ptr<Connection>> readers;
  for (int i = 0; i < 3; ++i) {
    readers.push_back(Connect());
    ASSERT_NE(readers.back(), nullptr);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (const std::unique_ptr<Connection>& reader : readers) {
    threads.emplace_back([&stop, r = reader.get()] {
      while (!stop.load()) Exec(r, "SELECT count(*) FROM t");
    });
  }
  using Clock = std::chrono::steady_clock;
  Clock::duration held{0};
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(conn->Begin().ok());
    // The INSERT upgrades to exclusive: from here until COMMIT every
    // reader's next SELECT waits at the gate.
    Exec(conn.get(), "INSERT INTO t VALUES (2)");
    const Clock::time_point start = Clock::now();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    held += Clock::now() - start;
    EXPECT_TRUE(conn->Commit().ok());
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const int64_t waited =
      Exec(conn.get(), "SELECT tip_server_stats('gate_wait_shared_ms')")
          .GetInt(0, 0) -
      waited_before;
  const int64_t held_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(held).count();
  // Three readers queue behind each hold; asking for half of one
  // reader's share leaves room for a slow machine.
  EXPECT_GE(waited, held_ms / 2) << "held " << held_ms << "ms";
}

}  // namespace
}  // namespace tip::server
