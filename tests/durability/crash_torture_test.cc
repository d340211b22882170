// The crash-torture harness: fork a writer child, kill it (KillAt →
// _Exit, the in-process kill -9) at an armed I/O point, re-open the
// database in the parent and check the recovered state against a
// shadow replay of the reference statement trace.
//
// The invariant: after a kill at ANY point, the recovered database
// equals the first k statements of the trace for some k with
//   floor <= k <= issued
// where `floor` is the durable floor derived from the child's ack file
// (see below). k may exceed the floor by statements that were durably
// logged but killed before the acknowledgment was written; it may
// never be below it (an acknowledged statement must survive), and a
// torn tail must be truncated, never replayed as garbage.
//
// Transactions refine both sides of the bound. Only
// transaction-consistent prefixes are admissible at all — a k that
// lands inside a BEGIN..COMMIT block would surface a partial
// transaction, which recovery must never do. And acknowledgments of
// statements inside an open transaction are provisional until COMMIT
// is acked, so the floor is the largest consistent point at or below
// the raw ack count (with wal_mode off, where nothing is durable, the
// floor is simply zero).

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "engine/storage/snapshot.h"

namespace tip::engine {
namespace {

/// One reference trace plus its transaction structure: consistent[k]
/// says whether no transaction is open after the first k statements
/// (k ranges 0..statements.size()), checkpoint_after[i] schedules the
/// child's checkpoints (only ever at consistent points — checkpoints
/// inside a transaction are refused by the engine).
struct Workload {
  std::vector<std::string> statements;
  std::vector<bool> consistent;
  std::vector<bool> checkpoint_after;
};

void FinishWorkload(Workload* w, const std::vector<size_t>& checkpoints) {
  w->consistent.assign(w->statements.size() + 1, true);
  bool open = false;
  for (size_t i = 0; i < w->statements.size(); ++i) {
    const std::string& s = w->statements[i];
    if (s.rfind("BEGIN", 0) == 0) open = true;
    if (s.rfind("COMMIT", 0) == 0 || s.rfind("ROLLBACK", 0) == 0) {
      open = false;
    }
    w->consistent[i + 1] = !open;
  }
  w->checkpoint_after.assign(w->statements.size(), false);
  for (size_t i : checkpoints) {
    w->checkpoint_after[i] = w->consistent[i + 1];
  }
}

/// The auto-commit trace: DDL, inserts, updates and deletes over two
/// tables (one with a TIP-typed column). Deterministic, so the parent
/// can shadow-replay any prefix.
Workload PlainWorkload() {
  Workload w;
  std::vector<std::string>& s = w.statements;
  s.push_back("CREATE TABLE t (id INT, v CHAR(8))");
  s.push_back("CREATE TABLE p (id INT, valid Element)");
  for (int i = 0; i < 10; ++i) {
    s.push_back("INSERT INTO t VALUES (" + std::to_string(i) + ", 'v" +
                std::to_string(i) + "')");
    if (i % 3 == 2) {
      s.push_back("UPDATE t SET v = 'u" + std::to_string(i) +
                  "' WHERE id = " + std::to_string(i - 1));
    }
    if (i % 4 == 3) {
      s.push_back("DELETE FROM t WHERE id = " + std::to_string(i - 2));
    }
    if (i % 5 == 1) {
      s.push_back("INSERT INTO p VALUES (" + std::to_string(i) +
                  ", '{[1999-01-01, NOW]}')");
    }
  }
  // After every 7th statement the child takes a checkpoint, so the
  // kill points inside snapshot writing, metadata publication and WAL
  // rotation all get exercised mid-trace.
  std::vector<size_t> checkpoints;
  for (size_t i = 4; i < s.size(); i += 7) checkpoints.push_back(i);
  FinishWorkload(&w, checkpoints);
  return w;
}

/// The transactional trace: BEGIN..COMMIT blocks interleaved with
/// auto-commit statements, plus one explicit ROLLBACK block. Kill
/// points inside the blocks exercise recovery's bracket handling:
/// after TXN_BEGIN, between buffered statements, and at the commit
/// append/fsync boundary.
Workload TxnWorkload() {
  Workload w;
  std::vector<std::string>& s = w.statements;
  s.push_back("CREATE TABLE t (id INT, v CHAR(8))");
  s.push_back("CREATE TABLE p (id INT, valid Element)");
  s.push_back("INSERT INTO t VALUES (0, 'base')");
  s.push_back("BEGIN WORK");
  s.push_back("INSERT INTO t VALUES (1, 'a')");
  s.push_back("INSERT INTO t VALUES (2, 'b')");
  s.push_back("UPDATE t SET v = 'a2' WHERE id = 1");
  s.push_back("COMMIT WORK");
  s.push_back("INSERT INTO t VALUES (3, 'c')");
  s.push_back("BEGIN");
  s.push_back("INSERT INTO t VALUES (4, 'd')");
  s.push_back("DELETE FROM t WHERE id = 2");
  s.push_back("ROLLBACK");
  s.push_back("INSERT INTO p VALUES (1, '{[1999-01-01, NOW]}')");
  s.push_back("BEGIN");
  s.push_back("INSERT INTO p VALUES (2, '{[1998-01-01, 1998-06-01]}')");
  s.push_back("INSERT INTO t VALUES (5, 'e')");
  s.push_back("COMMIT");
  s.push_back("DELETE FROM t WHERE id = 0");
  s.push_back("BEGIN");
  s.push_back("INSERT INTO t VALUES (6, 'f')");
  s.push_back("UPDATE t SET v = 'e2' WHERE id = 5");
  s.push_back("COMMIT");
  // Checkpoints at consistent points only: after the first committed
  // block and between the later blocks.
  FinishWorkload(&w, {8, 13, 18});
  return w;
}

struct KillSpec {
  std::string point;  // fault point armed with KillAt
  uint64_t nth;       // which hit dies
  WalMode mode;       // wal_mode the child runs under
  bool txn_trace;     // which workload the child runs
};

std::vector<KillSpec> BuildKillSpecs() {
  std::vector<KillSpec> specs;
  // Every append dies once, under all three logging modes.
  for (uint64_t n = 0; n < 18; ++n) {
    const WalMode mode = n % 3 == 0   ? WalMode::kSync
                         : n % 3 == 1 ? WalMode::kGroup
                                      : WalMode::kAsync;
    specs.push_back({"wal.append", n, mode, false});
  }
  // Fsyncs only happen in sync/group mode.
  for (uint64_t n = 0; n < 8; ++n) {
    specs.push_back({"wal.fsync", n,
                     n % 2 == 0 ? WalMode::kSync : WalMode::kGroup, false});
  }
  // Checkpoint machinery: each step of snapshot save, metadata publish
  // and WAL rotation, at the first and second checkpoint.
  for (const char* point :
       {"checkpoint.begin", "snapshot.open", "snapshot.write",
        "snapshot.fsync", "snapshot.close", "snapshot.rename",
        "snapshot.dirsync", "checkpoint.commit", "checkpoint.meta.open",
        "checkpoint.meta.write", "checkpoint.meta.rename",
        "checkpoint.meta.dirsync", "wal.rotate.write", "wal.rotate.rename",
        "wal.rotate.dirsync"}) {
    specs.push_back({point, 0, WalMode::kGroup, false});
    specs.push_back({point, 1, WalMode::kGroup, false});
  }
  // The transactional trace: every append (TXN_BEGIN brackets, the
  // records inside them, TXN_COMMIT) dies once under each logging
  // mode, and every fsync dies in sync/group mode — sync's
  // commit-point fsync is the "commit appended but not yet durable"
  // kill the bracket protocol exists for.
  for (uint64_t n = 0; n < 24; ++n) {
    const WalMode mode = n % 3 == 0   ? WalMode::kSync
                         : n % 3 == 1 ? WalMode::kGroup
                                      : WalMode::kAsync;
    specs.push_back({"wal.append", n, mode, true});
  }
  for (uint64_t n = 0; n < 8; ++n) {
    specs.push_back({"wal.fsync", n,
                     n % 2 == 0 ? WalMode::kSync : WalMode::kGroup, true});
  }
  // With the WAL off only checkpoints persist anything; kill inside
  // them — recovery must still never surface a partial transaction.
  for (const char* point :
       {"snapshot.write", "checkpoint.commit", "wal.rotate.rename"}) {
    specs.push_back({point, 0, WalMode::kOff, true});
    specs.push_back({point, 1, WalMode::kOff, true});
  }
  // The rollback path: dying inside the WAL rewind leaves the aborted
  // bracket in the log; recovery must still discard it.
  specs.push_back({"wal.reset", 0, WalMode::kSync, true});
  specs.push_back({"wal.reset", 0, WalMode::kGroup, true});
  // Checkpoints interleaved with transactions.
  for (const char* point :
       {"checkpoint.begin", "snapshot.write", "checkpoint.meta.rename",
        "wal.rotate.rename"}) {
    specs.push_back({point, 0, WalMode::kGroup, true});
    specs.push_back({point, 1, WalMode::kGroup, true});
  }
  return specs;
}

/// Child body. Never returns; exits 0 when the whole trace ran (the
/// armed point was never reached), kKillExitCode when the kill fired,
/// and small codes for harness bugs. No gtest machinery in here — the
/// child must never run the parent's test teardown.
[[noreturn]] void RunChild(const std::string& dir,
                           const std::string& ack_path, const KillSpec& spec,
                           const Workload& workload) {
  fault::ClearAll();
  auto db = std::make_unique<Database>();
  if (!datablade::Install(db.get()).ok()) std::_Exit(3);
  if (!db->AttachDurableDir(dir).ok()) std::_Exit(3);
  db->set_wal_mode(spec.mode);
  db->set_wal_group_size(2);
  std::FILE* ack = std::fopen(ack_path.c_str(), "wb");
  if (ack == nullptr) std::_Exit(3);

  fault::KillAt(spec.point, spec.nth);
  const std::vector<std::string>& statements = workload.statements;
  for (size_t i = 0; i < statements.size(); ++i) {
    if (!db->Execute(statements[i]).ok()) std::_Exit(4);
    // Acknowledge: a fixed-width count, flushed to the kernel, so it
    // survives the in-process kill exactly like a client's received
    // reply would.
    const uint32_t done = static_cast<uint32_t>(i + 1);
    if (std::fwrite(&done, sizeof(done), 1, ack) != 1 ||
        std::fflush(ack) != 0) {
      std::_Exit(5);
    }
    if (workload.checkpoint_after[i] && !db->Checkpoint().ok()) {
      std::_Exit(6);
    }
  }
  std::_Exit(0);
}

class CrashTortureTest : public ::testing::Test {
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
    std::string dir = ::testing::TempDir() + "/tip_torture_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dirs_.push_back(dir);
    return dir;
  }

  static uint32_t ReadAckCount(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return 0;
    uint32_t last = 0, value = 0;
    while (std::fread(&value, sizeof(value), 1, f) == 1) last = value;
    std::fclose(f);
    return last;
  }

  /// Canonical state digest: the snapshot serialization (deterministic
  /// catalog order, live rows in scan order — tombstones never appear,
  /// so a compacted restore digests identically to the original heap).
  static std::string StateDigest(const Database& db) {
    Result<std::string> bytes = SaveSnapshot(db);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    return bytes.ok() ? *bytes : std::string();
  }

  /// Runs one kill iteration: fork, die at the armed point, recover,
  /// and match against every admissible trace prefix.
  void RunIteration(const KillSpec& spec, const std::string& dir) {
    const Workload workload =
        spec.txn_trace ? TxnWorkload() : PlainWorkload();
    const std::string ack_path = dir + ".acks";
    std::remove(ack_path.c_str());
    std::filesystem::create_directories(dir);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunChild(dir, ack_path, spec, workload);  // never returns

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    const int code = WEXITSTATUS(status);
    ASSERT_TRUE(code == 0 || code == fault::kKillExitCode)
        << "child harness error, exit code " << code;
    if (code == fault::kKillExitCode) ++kills_observed_;

    const std::vector<std::string>& statements = workload.statements;
    const uint32_t acked = ReadAckCount(ack_path);
    ASSERT_LE(acked, statements.size());
    // A completed child acked everything.
    if (code == 0) {
      ASSERT_EQ(acked, statements.size());
    }

    RecoveryReport report;
    auto recovered = std::make_unique<Database>();
    ASSERT_TRUE(datablade::Install(recovered.get()).ok());
    Status attached = recovered->AttachDurableDir(dir, &report);
    ASSERT_TRUE(attached.ok()) << attached.ToString();
    const std::string digest = StateDigest(*recovered);

    // The durable floor: acks inside an open transaction are
    // provisional until the COMMIT is acked, so drop to the last
    // consistent point. With the WAL off, nothing is durable at all.
    uint32_t floor = acked;
    if (spec.mode == WalMode::kOff) {
      floor = 0;
    } else {
      while (floor > 0 && !workload.consistent[floor]) --floor;
    }

    // Shadow replay: some transaction-consistent prefix k in
    // [floor, issued] must match. The child logs each statement before
    // acking it, so k below the floor would mean an acknowledged
    // (and transaction-complete) statement vanished; an inconsistent k
    // would mean recovery surfaced a partial transaction.
    bool matched = false;
    uint32_t matched_k = 0;
    for (uint32_t k = floor; k <= statements.size() && !matched; ++k) {
      if (!workload.consistent[k]) continue;
      Database reference;
      ASSERT_TRUE(datablade::Install(&reference).ok());
      for (uint32_t i = 0; i < k; ++i) {
        Result<ResultSet> r = reference.Execute(statements[i]);
        ASSERT_TRUE(r.ok()) << statements[i];
      }
      if (StateDigest(reference) == digest) {
        matched = true;
        matched_k = k;
      }
    }
    EXPECT_TRUE(matched)
        << "recovered state matches no consistent trace prefix in ["
        << floor << ", " << statements.size() << "]";
    // A completed child's state must be recovered in full — except
    // with the WAL off, where by contract only the last checkpoint
    // survives.
    if (code == 0 && spec.mode != WalMode::kOff) {
      EXPECT_EQ(matched_k, statements.size());
    }
  }

  std::vector<std::string> dirs_;
  int kills_observed_ = 0;
};

TEST_F(CrashTortureTest, KilledAtEveryArmedPointRecoveryMatchesATracePrefix) {
  const std::vector<KillSpec> specs = BuildKillSpecs();
  ASSERT_GE(specs.size(), 50u) << "the issue demands >= 50 kill points";
  int index = 0;
  for (const KillSpec& spec : specs) {
    SCOPED_TRACE(spec.point + " nth=" + std::to_string(spec.nth) + " mode=" +
                 std::string(WalModeName(spec.mode)) +
                 (spec.txn_trace ? " trace=txn" : " trace=plain"));
    RunIteration(spec, FreshDir("kill_" + std::to_string(index++)));
    if (HasFatalFailure()) return;
  }
  // The suite is vacuous if the kills never actually fire.
  EXPECT_GE(kills_observed_, 80);
}

// ---- Bit rot ---------------------------------------------------------------
//
// The kill matrix above proves recovery survives *truncation* faults;
// this mode proves it survives *mutation*: one byte flipped at a
// seeded offset in each durable artifact. Every flip in the
// CRC-guarded metadata (CHECKPOINT, snapshot.<lsn>.tip) must refuse
// the strict open with Corruption — those files are load-bearing in
// full. In wal.log a damaged frame that a whole frame with the next
// LSN follows is detected, not absorbed; a flip in the last frame, or
// in a length field, reads as a torn tail instead (recovery cuts the
// log there), in which case the recovered state must still equal some
// prefix of the trace: detected or consistent, never a silently wrong
// database.

TEST_F(CrashTortureTest, SeededByteFlipsAreDetectedOrRecoverAConsistentPrefix) {
  const Workload workload = PlainWorkload();
  const std::string pristine = FreshDir("bitrot_pristine");
  std::filesystem::create_directories(pristine);
  {
    auto db = std::make_unique<Database>();
    ASSERT_TRUE(datablade::Install(db.get()).ok());
    ASSERT_TRUE(db->AttachDurableDir(pristine).ok());
    db->set_wal_mode(WalMode::kSync);
    for (size_t i = 0; i < workload.statements.size(); ++i) {
      ASSERT_TRUE(db->Execute(workload.statements[i]).ok())
          << workload.statements[i];
      // One mid-trace checkpoint, so the snapshot carries real tables
      // AND the WAL carries real frames — flips must have both kinds
      // of artifact to land in.
      if (i == workload.statements.size() / 2) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
  }
  // All three artifact kinds must exist for the sweep to mean anything.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(pristine)) {
    files.push_back(entry.path().filename().string());
  }
  ASSERT_GE(files.size(), 3u) << "expected CHECKPOINT, snapshot, wal.log";

  int detected = 0;
  int absorbed = 0;
  int iteration = 0;
  uint64_t seed = 0x9e3779b97f4a7c15ull;  // fixed: the sweep is repeatable
  for (const std::string& file : files) {
    const auto size = std::filesystem::file_size(pristine + "/" + file);
    ASSERT_GT(size, 0u) << file;
    // Three structural offsets plus five seeded ones per file.
    std::vector<uint64_t> offsets = {0, size / 2, size - 1};
    for (int i = 0; i < 5; ++i) {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      offsets.push_back(seed % size);
    }
    for (uint64_t offset : offsets) {
      SCOPED_TRACE(file + " flip at byte " + std::to_string(offset));
      const std::string dir =
          FreshDir("bitrot_" + std::to_string(iteration++));
      std::filesystem::copy(pristine, dir);
      {
        std::fstream f(dir + "/" + file,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(static_cast<std::streamoff>(offset));
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x01);
        f.seekp(static_cast<std::streamoff>(offset));
        f.write(&byte, 1);
        ASSERT_TRUE(f.good());
      }

      auto db = std::make_unique<Database>();
      ASSERT_TRUE(datablade::Install(db.get()).ok());
      Status attached = db->AttachDurableDir(dir);
      if (!attached.ok()) {
        EXPECT_EQ(attached.code(), StatusCode::kCorruption)
            << attached.ToString();
        ++detected;
        continue;
      }
      // Flips in the CRC-guarded metadata may never slip through.
      EXPECT_EQ(file, "wal.log")
          << "a flipped " << file << " byte opened without complaint";
      ++absorbed;
      const std::string digest = StateDigest(*db);
      bool matched = false;
      for (uint32_t k = 0; k <= workload.statements.size() && !matched;
           ++k) {
        Database reference;
        ASSERT_TRUE(datablade::Install(&reference).ok());
        for (uint32_t i = 0; i < k; ++i) {
          ASSERT_TRUE(reference.Execute(workload.statements[i]).ok());
        }
        matched = StateDigest(reference) == digest;
      }
      EXPECT_TRUE(matched)
          << "recovered state after the flip matches no trace prefix";
    }
  }
  // Vacuity guards: the sweep must exercise both outcomes.
  EXPECT_GE(detected, 3);
  EXPECT_GE(absorbed, 1);
}

TEST_F(CrashTortureTest, UnarmedChildRunsToCompletion) {
  // Self-check for the harness: with a never-hit point armed, the
  // child finishes, acks everything, and recovery reproduces the full
  // trace exactly — on both traces.
  RunIteration({"no.such.point", 0, WalMode::kGroup, false},
               FreshDir("complete_plain"));
  RunIteration({"no.such.point", 0, WalMode::kGroup, true},
               FreshDir("complete_txn"));
  EXPECT_EQ(kills_observed_, 0);
}

}  // namespace
}  // namespace tip::engine
