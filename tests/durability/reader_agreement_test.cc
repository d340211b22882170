// Recovery and the verifiers read the durable files through the same
// scans, so they must agree on every damaged byte. A small durable
// directory (a checkpoint, then post-checkpoint writes that include a
// committed transaction) is damaged one bit at a time: every byte of
// CHECKPOINT, the snapshot and wal.log with mask 0x01, and the header,
// footer and frame-header bytes with 0x04 and 0x10 as well. For each
// flip:
//   * a strict attach fails, with Corruption, exactly when
//     VerifyDurableDir reports a problem;
//   * a strict attach that succeeds recovers a transaction-consistent
//     prefix of the trace (a torn tail or an unclosed bracket was cut);
//   * a flip anywhere inside a WAL frame other than the last, its
//     length field included, is damage: a strict attach fails with
//     Corruption and leaves wal.log byte-identical;
//   * for snapshot flips, SalvageSnapshot recovers exactly the sections
//     the verifier counts as intact.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "engine/storage/integrity.h"
#include "engine/storage/snapshot.h"

namespace tip::engine {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint64_t LoadU64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, 8);
  return v;
}

uint32_t LoadU32(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, 4);
  return v;
}

/// One durable file and the byte ranges of its framing: the bytes that
/// get the extra masks.
struct Artifact {
  std::string name;
  std::string bytes;
  std::vector<bool> structural;  // per byte

  void MarkStructural(size_t from, size_t n) {
    for (size_t i = from; i < from + n && i < bytes.size(); ++i) {
      structural[i] = true;
    }
  }
};

class ReaderAgreementTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::ClearAll(); }
  void TearDown() override {
    for (const std::string& dir : dirs_) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }

  std::string FreshDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "/tip_agreement_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dirs_.push_back(dir);
    return dir;
  }

  static std::string Digest(const Database& db) {
    Result<std::string> bytes = SaveSnapshot(db);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    return bytes.ok() ? *bytes : std::string();
  }

  std::vector<std::string> dirs_;
};

TEST_F(ReaderAgreementTest, StrictAttachAndVerifierAgreeOnEveryFlippedBit) {
  const std::vector<std::string> trace = {
      "CREATE TABLE t (id INT, v CHAR(8))",
      "CREATE TABLE p (id INT, valid Element)",
      "CREATE INDEX p_valid ON p (valid) USING interval",
      "INSERT INTO t VALUES (1, 'a'), (2, 'b')",
      "INSERT INTO p VALUES (1, '{[1999-01-01, NOW]}')",
      // checkpoint here
      "INSERT INTO t VALUES (3, 'c')",
      "BEGIN",
      "INSERT INTO t VALUES (4, 'd')",
      "UPDATE t SET v = 'b2' WHERE id = 2",
      "COMMIT",
      "DELETE FROM t WHERE id = 1",
      "INSERT INTO p VALUES (2, '{[1998-01-01, 1998-06-01]}')",
  };
  const size_t checkpoint_after = 5;

  // The digests of every transaction-consistent prefix.
  std::set<std::string> prefixes;
  {
    Database reference;
    ASSERT_TRUE(datablade::Install(&reference).ok());
    bool open = false;
    for (size_t k = 0; k <= trace.size(); ++k) {
      if (!open) prefixes.insert(Digest(reference));
      if (k == trace.size()) break;
      ASSERT_TRUE(reference.Execute(trace[k]).ok()) << trace[k];
      if (trace[k] == "BEGIN") open = true;
      if (trace[k] == "COMMIT") open = false;
    }
  }

  const std::string pristine = FreshDir("pristine");
  {
    auto db = std::make_unique<Database>();
    ASSERT_TRUE(datablade::Install(db.get()).ok());
    ASSERT_TRUE(db->AttachDurableDir(pristine).ok());
    ASSERT_TRUE(db->set_wal_mode(WalMode::kSync).ok());
    for (size_t i = 0; i < trace.size(); ++i) {
      if (i == checkpoint_after) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
      ASSERT_TRUE(db->Execute(trace[i]).ok()) << trace[i];
    }
  }

  std::vector<Artifact> artifacts;
  size_t wal_last_frame = 0;  // where the last frame of wal.log starts
  size_t wal_frames = 0;
  std::vector<bool> wal_length_byte;  // per byte: in a frame's length
  for (const auto& entry : std::filesystem::directory_iterator(pristine)) {
    Artifact artifact;
    artifact.name = entry.path().filename().string();
    artifact.bytes = ReadAll(entry.path().string());
    artifact.structural.assign(artifact.bytes.size(), false);
    const std::string& b = artifact.bytes;
    if (artifact.name == "CHECKPOINT") {
      artifact.MarkStructural(0, b.size());
    } else if (artifact.name == "wal.log") {
      artifact.MarkStructural(0, 20);
      wal_length_byte.assign(b.size(), false);
      for (size_t at = 20; at + 8 <= b.size(); at += 8 + LoadU32(b, at)) {
        artifact.MarkStructural(at, 8);
        for (size_t i = at; i < at + 4; ++i) wal_length_byte[i] = true;
        wal_last_frame = at;
        ++wal_frames;
      }
    } else {
      // magic | #tables, then per section u64 length | u32 CRC, then
      // the u64 footer length and the 28-byte footer.
      artifact.MarkStructural(0, 16);
      size_t at = 16;
      for (uint64_t t = 0; t < LoadU64(b, 8) && at + 12 <= b.size(); ++t) {
        artifact.MarkStructural(at, 12);
        at += 12 + LoadU64(b, at);
      }
      artifact.MarkStructural(b.size() - 36, 36);
    }
    artifacts.push_back(std::move(artifact));
  }
  ASSERT_EQ(artifacts.size(), 3u) << "expected CHECKPOINT, snapshot, wal.log";

  ASSERT_GT(wal_frames, 1u);

  const std::string work = FreshDir("work");
  int detected = 0;
  int recovered = 0;
  size_t length_field_flips = 0;  // refused flips of an earlier frame's length
  for (size_t a = 0; a < artifacts.size(); ++a) {
    const Artifact& target = artifacts[a];
    const bool is_snapshot = target.name.rfind("snapshot.", 0) == 0;
    for (size_t offset = 0; offset < target.bytes.size(); ++offset) {
      std::vector<char> masks = {0x01};
      if (target.structural[offset]) {
        masks.push_back(0x04);
        masks.push_back(0x10);
      }
      for (const char mask : masks) {
        SCOPED_TRACE(target.name + " byte " + std::to_string(offset) +
                     " mask " + std::to_string(static_cast<int>(mask)));
        std::filesystem::remove_all(work);
        std::filesystem::create_directories(work);
        std::string flipped = target.bytes;
        flipped[offset] ^= mask;
        for (const Artifact& other : artifacts) {
          WriteAll(work + "/" + other.name,
                   &other == &target ? flipped : other.bytes);
        }

        OfflineVerifyReport verdict;
        ASSERT_TRUE(VerifyDurableDir(work, &verdict).ok());
        auto db = std::make_unique<Database>();
        ASSERT_TRUE(datablade::Install(db.get()).ok());
        const Status attached = db->AttachDurableDir(work);
        EXPECT_EQ(attached.ok(), verdict.clean())
            << "attach: " << attached.ToString() << "; verifier: "
            << (verdict.clean() ? "clean" : verdict.problems.front());
        if (!attached.ok()) {
          EXPECT_EQ(attached.code(), StatusCode::kCorruption)
              << attached.ToString();
          ++detected;
        } else {
          EXPECT_EQ(prefixes.count(Digest(*db)), 1u)
              << "recovered state matches no consistent trace prefix";
          ++recovered;
        }
        db.reset();

        if (target.name == "wal.log" && offset >= 20 &&
            offset < wal_last_frame) {
          EXPECT_EQ(attached.code(), StatusCode::kCorruption)
              << "a flip inside an earlier frame must be damage, not a torn "
                 "tail: "
              << attached.ToString();
          EXPECT_TRUE(ReadAll(work + "/wal.log") == flipped)
              << "the refused attach changed wal.log";
          if (wal_length_byte[offset] && !attached.ok()) {
            ++length_field_flips;
          }
        }

        if (is_snapshot) {
          Database salvage_target;
          ASSERT_TRUE(datablade::Install(&salvage_target).ok());
          SalvageReport salvage;
          (void)SalvageSnapshot(&salvage_target, flipped, &salvage);
          EXPECT_EQ(salvage.tables_recovered, verdict.snapshot_sections);
        }
      }
    }
  }
  // Vacuity guards: both outcomes must occur.
  EXPECT_GT(detected, 100);
  EXPECT_GT(recovered, 10);
  // Every frame but the last: 4 length bytes, 3 masks each.
  EXPECT_EQ(length_field_flips, (wal_frames - 1) * 4 * 3);
}

}  // namespace
}  // namespace tip::engine
