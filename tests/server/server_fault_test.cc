// The server's wire fault matrix. Each armed site —
//
//   server.accept    — the accept path refuses the incoming socket
//   server.read      — a session's inbound frame read fails
//   server.write     — a session's outbound frame write fails
//   server.frame_crc — a received frame fails its CRC check
//
// must be provably *fail-stop for that session only*: the victim's
// connection dies, its open transaction rolls back, its slot frees (a
// new client can take it), and every other session keeps serving
// untouched. The drain leg proves SIGTERM-style shutdown under load
// leaves a transaction-consistent durable directory behind.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
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

class ServerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::ClearAll(); }
  void TearDown() override {
    fault::ClearAll();
    if (server_ != nullptr) server_->Shutdown();
    for (const std::string& dir : dirs_) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }

  std::string FreshDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "/tip_server_fault_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dirs_.push_back(dir);
    return dir;
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

  /// The shared fail-stop scenario for a session-side wire site:
  /// victim session A opens a transaction and inserts; the site is
  /// armed; A's next statement trips it. Postconditions checked:
  /// A is dead, the uncommitted insert is gone, bystander B still
  /// serves, and a replacement C gets A's freed slot.
  void RunSessionSiteLeg(const std::string& site) {
    SCOPED_TRACE(site);
    ServerOptions options;
    options.max_sessions = 2;  // A + B; C needs A's slot back
    StartServer(options);
    std::unique_ptr<Connection> a = Connect();
    std::unique_ptr<Connection> b = Connect();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    Exec(a.get(), "CREATE TABLE t (id INT)");
    Exec(a.get(), "INSERT INTO t VALUES (1)");
    ASSERT_TRUE(a->Begin().ok());
    Exec(a.get(), "INSERT INTO t VALUES (2)");

    // B is quiet from here until the fault fires, so the one-shot
    // arm can only trip on A's traffic. server.write and
    // server.frame_crc kill the armed statement itself; server.read
    // sits at the head of the *next* frame read (A's session thread is
    // already parked inside the current read when we arm), so the
    // armed statement may still succeed and the session dies a moment
    // later — either way A must be fail-stopped within a beat.
    fault::InjectAt(site, 0);
    Result<client::ResultSet> hit = a->Execute("INSERT INTO t VALUES (3)");
    bool dead = !hit.ok() || !a->alive();
    for (int i = 0; i < 200 && !dead; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      dead = !a->Ping().ok();
    }
    EXPECT_TRUE(dead) << site << " did not fail-stop the session";
    fault::ClearAll();

    // Fail-stop is per-session: B never noticed, and A's transaction
    // was rolled back (B may need a beat while the server reaps A).
    ASSERT_TRUE(b->Ping().ok());
    int64_t count = -1;
    for (int i = 0; i < 100; ++i) {
      Result<client::ResultSet> r =
          b->Execute("SELECT count(*) FROM t");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      count = r->GetInt(0, 0);
      if (count == 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(count, 1) << "open transaction not rolled back after " << site;

    // A's slot must free: with max_sessions=2 and B still connected, a
    // third client only fits if the victim's slot was released.
    std::unique_ptr<Connection> c;
    for (int i = 0; i < 100 && c == nullptr; ++i) {
      Result<std::unique_ptr<Connection>> attempt =
          Connection::Connect("127.0.0.1", server_->port());
      if (attempt.ok()) {
        c = std::move(*attempt);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    ASSERT_NE(c, nullptr) << "victim slot never freed after " << site;
    EXPECT_EQ(Exec(c.get(), "SELECT count(*) FROM t").GetInt(0, 0), 1);
    EXPECT_GE(db_->server_stats().wire_faults.load(), 1u);
    EXPECT_GE(db_->server_stats().session_aborts.load(), 1u);

    server_->Shutdown();
    server_.reset();
    db_.reset();
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<Server> server_;
  std::vector<std::string> dirs_;
};

TEST_F(ServerFaultTest, ReadFaultIsFailStopPerSession) {
  RunSessionSiteLeg("server.read");
}

TEST_F(ServerFaultTest, WriteFaultIsFailStopPerSession) {
  RunSessionSiteLeg("server.write");
}

TEST_F(ServerFaultTest, FrameCrcFaultIsFailStopPerSession) {
  RunSessionSiteLeg("server.frame_crc");
}

TEST_F(ServerFaultTest, AcceptFaultDropsOnlyTheIncomingConnection) {
  StartServer();
  std::unique_ptr<Connection> existing = Connect();
  ASSERT_NE(existing, nullptr);
  Exec(existing.get(), "CREATE TABLE t (id INT)");

  fault::InjectAt("server.accept", 0);
  Result<std::unique_ptr<Connection>> refused =
      Connection::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(refused.ok()) << "armed accept admitted a connection";
  fault::ClearAll();

  // The established session kept serving through the refused accept,
  // and the fault was one-shot: the next connect succeeds.
  EXPECT_TRUE(existing->Ping().ok());
  Exec(existing.get(), "INSERT INTO t VALUES (1)");
  std::unique_ptr<Connection> next = Connect();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(Exec(next.get(), "SELECT count(*) FROM t").GetInt(0, 0), 1);
  EXPECT_GE(db_->server_stats().wire_faults.load(), 1u);
}

TEST_F(ServerFaultTest, FaultsCanBeArmedOverTheWire) {
  // SET fault_inject is plain SQL, so a remote session can arm the
  // server's own sites — the wire-level equivalent of the embedded
  // fault harness. The arming session is its own victim.
  StartServer();
  std::unique_ptr<Connection> a = Connect();
  std::unique_ptr<Connection> b = Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Exec(a.get(), "CREATE TABLE t (id INT)");
  Exec(a.get(), "SET fault_inject 'server.read:0'");
  Result<client::ResultSet> hit = a->Execute("SELECT count(*) FROM t");
  EXPECT_FALSE(hit.ok());
  EXPECT_FALSE(a->alive());
  EXPECT_TRUE(b->Ping().ok());
}

// ---- Drain under load ------------------------------------------------------

TEST_F(ServerFaultTest, DrainUnderLoadPreservesAckedWritesAndAbortsSleepers) {
  const std::string dir = FreshDir("drain_load");
  ServerOptions options;
  options.drain_timeout_ms = 300;
  StartServer(options, dir);

  std::unique_ptr<Connection> writer = Connect();
  std::unique_ptr<Connection> sleeper = Connect();
  ASSERT_NE(writer, nullptr);
  ASSERT_NE(sleeper, nullptr);
  Exec(writer.get(), "CREATE TABLE t (id INT)");

  // Load at drain time: a stream of auto-commit inserts plus one
  // statement far longer than the grace period — drain must
  // deadline-abort it, never wait it out. (The two contend on the
  // statement gate; once the sleeper holds it the writer sees "server
  // busy" and stops, which is itself the backpressure contract.)
  std::atomic<int> acked{0};
  std::atomic<bool> stop_writing{false};
  std::thread write_loop([&] {
    for (int i = 0; i < 100000 && !stop_writing; ++i) {
      Result<client::ResultSet> r = writer->Execute(
          "INSERT INTO t VALUES (" + std::to_string(i) + ")");
      if (!r.ok()) break;
      acked.fetch_add(1);
    }
  });
  while (acked.load() < 20) std::this_thread::yield();
  std::thread sleep_stmt([&] {
    (void)sleeper->Execute("SELECT tip_sleep_ms(60000)");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto drain_start = std::chrono::steady_clock::now();
  server_->Shutdown();
  const auto drain_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - drain_start)
          .count();
  stop_writing = true;
  write_loop.join();
  sleep_stmt.join();
  server_.reset();
  db_.reset();
  // Bounded drain: well under the sleeper's 60s.
  EXPECT_LT(drain_ms, 10000);

  // The directory must re-attach under *strict* recovery — drain left
  // no torn state — with every acknowledged insert present.
  auto reopened = std::make_unique<engine::Database>();
  ASSERT_TRUE(datablade::Install(reopened.get()).ok());
  Status attached = reopened->AttachDurableDir(
      dir, nullptr, engine::RecoveryMode::kStrict);
  ASSERT_TRUE(attached.ok()) << attached.ToString();
  Result<engine::ResultSet> rows =
      reopened->Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_GE(rows->rows[0][0].int_value(), acked.load());
}

TEST_F(ServerFaultTest, DrainRollsBackAnAbandonedTransaction) {
  const std::string dir = FreshDir("drain_txn");
  ServerOptions options;
  options.drain_timeout_ms = 300;
  StartServer(options, dir);

  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Exec(conn.get(), "CREATE TABLE t (id INT)");
  Exec(conn.get(), "INSERT INTO t VALUES (1)");
  ASSERT_TRUE(conn->Begin().ok());
  Exec(conn.get(), "INSERT INTO t VALUES (-1)");

  // Drain hits a session parked inside a transaction: the transaction
  // must be rolled back (never half-committed) before the final
  // checkpoint.
  server_->Shutdown();
  server_.reset();
  db_.reset();

  auto reopened = std::make_unique<engine::Database>();
  ASSERT_TRUE(datablade::Install(reopened.get()).ok());
  Status attached = reopened->AttachDurableDir(
      dir, nullptr, engine::RecoveryMode::kStrict);
  ASSERT_TRUE(attached.ok()) << attached.ToString();
  Result<engine::ResultSet> rows = reopened->Execute(
      "SELECT count(*), min(id) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].int_value(), 1);
  EXPECT_EQ(rows->rows[0][1].int_value(), 1)
      << "drain committed an abandoned transaction";
}

}  // namespace
}  // namespace tip::server
