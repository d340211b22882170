// The server-kill variant of the crash-torture harness: fork a child
// that runs a real Server over a durable database, kill the *server
// process* (KillAt → _Exit, the in-process kill -9) at armed wire and
// WAL points while a remote client commits transactions, then recover
// the directory in the parent. The invariant is the network version of
// the durability contract: the recovered database is a
// transaction-consistent prefix with
//
//   acked_commits <= recovered_commits <= issued_commits
//
// — every transaction whose COMMIT the client saw acknowledged must
// survive (wal_mode sync: durable before the ack frame is sent), no
// transaction may surface half-applied, and commits the server
// processed but never got to acknowledge may legitimately appear.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
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

struct KillSpec {
  std::string point;  // armed with KillAt; "" = never killed
  uint64_t nth;
};

/// Child body: serve `dir` until the armed kill fires. Writes the bound
/// port (text) to `port_path` once listening. No gtest in here.
[[noreturn]] void RunServerChild(const std::string& dir,
                                 const std::string& port_path,
                                 const KillSpec& spec) {
  fault::ClearAll();
  auto db = std::make_unique<engine::Database>();
  if (!datablade::Install(db.get()).ok()) std::_Exit(3);
  if (!db->AttachDurableDir(dir).ok()) std::_Exit(3);
  db->set_wal_mode(engine::WalMode::kSync);

  Result<std::unique_ptr<Server>> server =
      Server::Start(db.get(), ServerOptions());
  if (!server.ok()) std::_Exit(3);
  if (!spec.point.empty()) fault::KillAt(spec.point, spec.nth);

  const std::string tmp = port_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) std::_Exit(3);
  std::fprintf(f, "%d\n", (*server)->port());
  std::fclose(f);
  if (std::rename(tmp.c_str(), port_path.c_str()) != 0) std::_Exit(3);

  // Serve until killed (the armed point fires inside a server thread
  // and _Exits the whole process) or the parent SIGKILLs us.
  for (;;) pause();
}

class ServerCrashTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::ClearAll(); }
  void TearDown() override {
    fault::ClearAll();
    for (const std::string& dir : dirs_) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }

  std::string FreshDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "/tip_server_crash_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dirs_.push_back(dir);
    return dir;
  }

  static int WaitForPort(const std::string& port_path) {
    for (int i = 0; i < 500; ++i) {
      std::FILE* f = std::fopen(port_path.c_str(), "rb");
      if (f != nullptr) {
        int port = 0;
        const int got = std::fscanf(f, "%d", &port);
        std::fclose(f);
        if (got == 1 && port > 0) return port;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  /// One iteration: serve, commit transactions remotely until the
  /// server dies (or the trace completes), recover, check the bound.
  void RunIteration(const KillSpec& spec, const std::string& dir) {
    std::filesystem::create_directories(dir);
    const std::string port_path = dir + ".port";
    dirs_.push_back(port_path);  // remove_all handles plain files too
    std::remove(port_path.c_str());

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunServerChild(dir, port_path, spec);  // never returns

    const int port = WaitForPort(port_path);
    ASSERT_GT(port, 0) << "server child never published its port";

    // The client side: transactional blocks of two inserts each.
    // `issued` counts blocks whose COMMIT was sent (the upper bound);
    // `acked` counts blocks whose COMMIT reply arrived (the floor).
    constexpr int kBlocks = 40;
    int issued = 0;
    int acked = 0;
    bool schema_done = false;
    {
      Result<std::unique_ptr<Connection>> conn =
          Connection::Connect("127.0.0.1", port);
      if (conn.ok()) {
        Connection* c = conn->get();
        schema_done =
            c->Execute("CREATE TABLE t (id INT, v CHAR(8))").ok();
        for (int b = 0; schema_done && b < kBlocks; ++b) {
          if (!c->Begin().ok()) break;
          const std::string base = std::to_string(b * 2);
          if (!c->Execute("INSERT INTO t VALUES (" + base + ", 'a')")
                   .ok()) {
            break;
          }
          if (!c->Execute("INSERT INTO t VALUES (" +
                          std::to_string(b * 2 + 1) + ", 'b')")
                   .ok()) {
            break;
          }
          ++issued;
          if (!c->Commit().ok()) break;
          ++acked;
        }
      }
    }

    // Harvest the child. A completed trace means the armed point never
    // fired (or there was none): that iteration degenerates to the
    // clean-run control — SIGKILL now, everything acked must recover.
    // Otherwise the client loop broke because the server died; give
    // the _Exit a moment to be reapable before concluding anything.
    int status = 0;
    pid_t done = 0;
    if (acked < kBlocks || !schema_done) {
      for (int i = 0; i < 500 && done == 0; ++i) {
        done = waitpid(pid, &status, WNOHANG);
        if (done == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    }
    if (done == 0) {
      kill(pid, SIGKILL);
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
    } else {
      ASSERT_EQ(done, pid);
      ASSERT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), fault::kKillExitCode)
          << "server child died of something other than the armed kill";
      ++kills_observed_;
    }

    if (!schema_done) {
      // The kill beat even the CREATE TABLE; nothing to bound. The
      // directory must still recover (possibly to empty).
      auto db = std::make_unique<engine::Database>();
      ASSERT_TRUE(datablade::Install(db.get()).ok());
      EXPECT_TRUE(db->AttachDurableDir(dir).ok());
      return;
    }

    // Recover in-parent under strict mode: a server kill is a crash,
    // not corruption — the torn WAL tail must truncate cleanly.
    fault::ClearAll();
    auto db = std::make_unique<engine::Database>();
    ASSERT_TRUE(datablade::Install(db.get()).ok());
    Status attached = db->AttachDurableDir(dir);
    ASSERT_TRUE(attached.ok()) << attached.ToString();

    Result<engine::ResultSet> rows = db->Execute("SELECT count(*) FROM t");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    const int64_t recovered = rows->rows[0][0].int_value();
    // Transaction consistency: blocks are atomic, so the row count is
    // even and the commit count sits inside [acked, issued].
    EXPECT_EQ(recovered % 2, 0)
        << "recovery surfaced half a transaction";
    EXPECT_GE(recovered / 2, acked)
        << "an acknowledged COMMIT vanished";
    EXPECT_LE(recovered / 2, issued)
        << "recovery invented transactions";
  }

  std::vector<std::string> dirs_;
  int kills_observed_ = 0;
};

TEST_F(ServerCrashTest, KilledServerRecoversATransactionConsistentPrefix) {
  // Wire sites (the session threads' frame I/O), WAL sites (the commit
  // path under the statements), and the commit fsync — each kills the
  // whole server process mid-service.
  const std::vector<KillSpec> specs = {
      {"server.read", 3},  {"server.read", 10},  {"server.write", 4},
      {"server.write", 12}, {"server.frame_crc", 6}, {"wal.append", 5},
      {"wal.append", 17},  {"wal.append", 40},   {"wal.fsync", 3},
      {"wal.fsync", 11},
  };
  int index = 0;
  for (const KillSpec& spec : specs) {
    SCOPED_TRACE(spec.point + " nth=" + std::to_string(spec.nth));
    RunIteration(spec, FreshDir("kill_" + std::to_string(index++)));
    if (HasFatalFailure()) return;
  }
  // Vacuity guard: the armed points must actually fire.
  EXPECT_GE(kills_observed_, 8);
}

TEST_F(ServerCrashTest, UnarmedServerChildServesTheWholeTrace) {
  // Control run: no kill, the client completes all blocks, and SIGKILL
  // plus recovery reproduces every one of them.
  RunIteration({"", 0}, FreshDir("control"));
  EXPECT_EQ(kills_observed_, 0);
}

}  // namespace
}  // namespace tip::server
