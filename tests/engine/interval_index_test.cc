#include "engine/index/interval_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "datablade/datablade.h"
#include "engine/database.h"

namespace tip::engine {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Where a probe's NOW does not matter: every key is absolute.
constexpr int64_t kAnyNow = 0;

/// The entry of `row` covering [start, end] under every NOW.
IntervalEntry Entry(int64_t start, int64_t end, RowId row) {
  return {IntervalKey::Absolute(start, end), row};
}

std::vector<RowId> BruteForce(const std::vector<IntervalEntry>& entries,
                              int64_t qs, int64_t qe) {
  std::vector<RowId> out;
  for (const IntervalEntry& e : entries) {
    if (e.key.start <= qe && qs <= e.key.end) out.push_back(e.row);
  }
  return Sorted(std::move(out));
}

TEST(IntervalIndexTest, EmptyIndex) {
  IntervalIndex index = IntervalIndex::Build({});
  EXPECT_TRUE(index.empty());
  std::vector<RowId> out;
  index.FindOverlapping(0, 100, kAnyNow, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntervalIndexTest, SingleEntry) {
  IntervalIndex index = IntervalIndex::Build({Entry(10, 20, 1)});
  std::vector<RowId> out;
  index.FindOverlapping(20, 30, kAnyNow, &out);
  EXPECT_EQ(out, std::vector<RowId>{1});
  out.clear();
  index.FindOverlapping(21, 30, kAnyNow, &out);
  EXPECT_TRUE(out.empty());
  out.clear();
  index.FindOverlapping(15, 15, kAnyNow, &out);
  EXPECT_EQ(out, std::vector<RowId>{1});
}

TEST(IntervalIndexTest, KnownLayout) {
  std::vector<IntervalEntry> entries = {
      Entry(1, 5, 10),   Entry(3, 9, 11),   Entry(8, 12, 12),
      Entry(15, 15, 13), Entry(20, 30, 14),
  };
  IntervalIndex index = IntervalIndex::Build(entries);
  EXPECT_EQ(index.entries().size(), 5u);
  std::vector<RowId> out;
  index.FindOverlapping(4, 8, kAnyNow, &out);
  EXPECT_EQ(Sorted(out), (std::vector<RowId>{10, 11, 12}));
  out.clear();
  index.FindOverlapping(13, 19, kAnyNow, &out);
  EXPECT_EQ(Sorted(out), std::vector<RowId>{13});
  out.clear();
  index.FindOverlapping(31, 40, kAnyNow, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntervalIndexTest, AllIntervalsIdentical) {
  // Degenerate balance case: every interval straddles every center.
  std::vector<IntervalEntry> entries;
  for (RowId r = 0; r < 100; ++r) entries.push_back(Entry(50, 60, r));
  IntervalIndex index = IntervalIndex::Build(entries);
  std::vector<RowId> out;
  index.FindOverlapping(55, 55, kAnyNow, &out);
  EXPECT_EQ(out.size(), 100u);
  out.clear();
  index.FindOverlapping(0, 49, kAnyNow, &out);
  EXPECT_TRUE(out.empty());
}

class IntervalIndexPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalIndexPropertyTest, AgreesWithBruteForce) {
  Rng rng(GetParam());
  std::vector<IntervalEntry> entries;
  const int n = 300;
  for (RowId r = 0; r < n; ++r) {
    int64_t s = rng.Uniform(0, 1000);
    int64_t e = s + rng.Uniform(0, 80);
    entries.push_back(Entry(s, e, r));
  }
  IntervalIndex index = IntervalIndex::Build(entries);
  for (int q = 0; q < 200; ++q) {
    int64_t qs = rng.Uniform(-50, 1100);
    int64_t qe = qs + rng.Uniform(0, 120);
    std::vector<RowId> got;
    index.FindOverlapping(qs, qe, kAnyNow, &got);
    EXPECT_EQ(Sorted(got), BruteForce(entries, qs, qe))
        << "query [" << qs << ", " << qe << "]";
  }
}

TEST_P(IntervalIndexPropertyTest, StabbingAgreesWithBruteForce) {
  Rng rng(GetParam() ^ 0xF00D);
  std::vector<IntervalEntry> entries;
  for (RowId r = 0; r < 200; ++r) {
    int64_t s = rng.Uniform(0, 500);
    entries.push_back(Entry(s, s + rng.Uniform(0, 40), r));
  }
  IntervalIndex index = IntervalIndex::Build(entries);
  for (int64_t q = -10; q <= 560; q += 7) {
    std::vector<RowId> got;
    index.FindOverlapping(q, q, kAnyNow, &got);
    EXPECT_EQ(Sorted(got), BruteForce(entries, q, q));
  }
}

TEST_P(IntervalIndexPropertyTest, NowRelativeKeysAgreeWithBruteForce) {
  // Keys with a NOW part on either side, or both, beside absolute ones:
  // the tree's hits, checked at a NOW, must be exactly the keys that
  // overlap the query at that NOW.
  Rng rng(GetParam() ^ 0xBEEF);
  std::vector<IntervalEntry> entries;
  for (RowId r = 0; r < 300; ++r) {
    IntervalKey key;
    const int64_t s = rng.Uniform(0, 1000);
    switch (rng.Uniform(0, 3)) {
      case 0:  // [s, s + n]
        key = IntervalKey::Absolute(s, s + rng.Uniform(0, 80));
        break;
      case 1:  // [s, NOW + offset]
        key.start = s;
        key.now_end = rng.Uniform(-40, 40);
        break;
      case 2:  // [NOW + offset, e]
        key.now_start = rng.Uniform(-40, 40);
        key.end = s;
        break;
      default:  // [NOW + a, NOW + b], a <= b
        key.now_start = rng.Uniform(-60, 0);
        key.now_end = *key.now_start + rng.Uniform(0, 60);
        break;
    }
    entries.push_back({key, r});
  }
  IntervalIndex index = IntervalIndex::Build(entries);
  for (int q = 0; q < 200; ++q) {
    const int64_t now = rng.Uniform(-50, 1100);
    const int64_t qs = rng.Uniform(-50, 1100);
    const int64_t qe = qs + rng.Uniform(0, 120);
    std::vector<RowId> got;
    index.FindOverlapping(qs, qe, now, &got);
    std::vector<RowId> want;
    for (const IntervalEntry& e : entries) {
      if (e.key.OverlapsAt(now, qs, qe)) want.push_back(e.row);
    }
    EXPECT_EQ(Sorted(got), Sorted(want))
        << "NOW " << now << " query [" << qs << ", " << qe << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalIndexPropertyTest,
                         ::testing::Values(21u, 42u, 84u));

TEST(IntervalIndexTest, DecidesNowRelativeHitsAtTheProbesNow) {
  auto at = [](const char* text) { return Chronon::Parse(text)->seconds(); };
  IntervalKey closing;  // [NOW-30 days, 1999-12-31]
  closing.now_start = -30 * 86400;
  closing.end = at("1999-12-31");
  IntervalKey open;  // [1999-10-01, NOW]
  open.start = at("1999-10-01");
  open.now_end = 0;
  const IntervalKey empty;  // an empty Element: no time under any NOW
  IntervalIndex index = IntervalIndex::Build(
      {{closing, 1},
       {open, 2},
       {empty, 3},
       Entry(at("1999-01-01"), at("1999-01-10"), 4)});
  auto find = [&](const char* from, const char* to, const char* now) {
    std::vector<RowId> out;
    index.FindOverlapping(at(from), at(to), at(now), &out);
    return Sorted(std::move(out));
  };
  // Before its start the open row covers no time.
  EXPECT_EQ(find("1999-09-01", "1999-09-30", "1999-09-17"),
            std::vector<RowId>{1});
  EXPECT_EQ(find("1999-10-01", "1999-10-20", "1999-11-15"),
            (std::vector<RowId>{1, 2}));
  // From 2000-01-31 on the closing row's start passes its end.
  EXPECT_EQ(find("1999-01-01", "2000-12-31", "2000-06-01"),
            (std::vector<RowId>{2, 4}));
  // The empty key never answers a probe, but it is an entry.
  EXPECT_EQ(index.entries().size(), 4u);
}

// -- Interval index maintenance (SQL level) ----------------------------------
//
// Each row is keyed once, without a NOW, and a view evaluates the keys
// at its own NOW: heap writes are the only thing that rebuild or patch
// the index. These tests pin down when it rebuilds, asserted through
// the tip_index_stats() counters, and that its answers and errors
// agree with a scan under every NOW.

class SegmentedIndexSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datablade::Install(&db_).ok());
    Exec("CREATE TABLE t (valid Element)");
  }

  ResultSet Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  int64_t Count(const std::string& window) {
    ResultSet r = Exec("SELECT count(*) FROM t WHERE overlaps(valid, '" +
                       window + "'::Element)");
    return r.rows[0][0].int_value();
  }

  int64_t Counter(const std::string& name) {
    ResultSet r =
        Exec("SELECT tip_index_stats('t', 'idx', '" + name + "')");
    return r.rows[0][0].int_value();
  }

  /// CHECK TABLE t's (status, detail).
  std::pair<std::string, std::string> CheckTable() {
    ResultSet r = Exec("CHECK TABLE t");
    if (r.rows.size() != 1) return {"", ""};
    return {r.rows[0][1].string_value(), r.rows[0][2].string_value()};
  }

  const HeapTable& Heap() { return (*db_.catalog().GetTable("t"))->heap(); }

  Database db_;
};

TEST_F(SegmentedIndexSqlTest, NowOverrideChangesAnswerForNowRelativeRows) {
  Exec("INSERT INTO t VALUES ('{[1999-01-01, 1999-03-01]}')");
  Exec("INSERT INTO t VALUES ('{[1999-10-01, NOW]}')");
  Exec("CREATE INDEX idx ON t (valid) USING interval");

  const std::string window = "{[1999-11-01, 1999-12-31]}";
  Exec("SET NOW '1999-11-15'");
  EXPECT_EQ(Count(window), 1);  // open prescription reaches into the window
  Exec("SET NOW '1999-09-17'");
  EXPECT_EQ(Count(window), 0);  // NOW before start: the open row is empty
  Exec("SET NOW '2000-01-10'");
  EXPECT_EQ(Count(window), 1);
}

TEST_F(SegmentedIndexSqlTest, AllAbsoluteTableNeverRebuildsOnNowChanges) {
  for (int i = 0; i < 8; ++i) {
    Exec("INSERT INTO t VALUES ('{[1999-0" + std::to_string(i + 1) +
         "-01, 1999-0" + std::to_string(i + 1) + "-20]}')");
  }
  Exec("CREATE INDEX idx ON t (valid) USING interval");

  const std::string window = "{[1999-03-15, 1999-05-10]}";
  const char* nows[] = {"'1999-11-15'", "'2000-06-01'", "'1999-11-15'",
                        "'1980-01-01'", "'2000-06-01'"};
  int64_t expected = -1;
  for (const char* now : nows) {
    Exec(std::string("SET NOW ") + now);
    const int64_t got = Count(window);
    if (expected < 0) expected = got;
    EXPECT_EQ(got, expected) << "answer drifted across NOW overrides";
  }
  EXPECT_EQ(expected, 3);

  // One absolute build, zero overlay rebuilds: NOW changes are free.
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("overlay_builds"), 0);
  EXPECT_EQ(Counter("probes"), static_cast<int64_t>(std::size(nows)));
  EXPECT_EQ(Counter("rows_scanned"), 8);
}

TEST_F(SegmentedIndexSqlTest, MixedTableNowMovesRebuildNothing) {
  Exec("INSERT INTO t VALUES ('{[1999-01-01, 1999-03-01]}')");
  Exec("INSERT INTO t VALUES ('{[1999-04-01, 1999-05-01]}')");
  Exec("INSERT INTO t VALUES ('{[1999-10-01, NOW]}')");
  Exec("CREATE INDEX idx ON t (valid) USING interval");

  const std::string window = "{[1999-11-01, 1999-12-31]}";
  Exec("SET NOW '1999-11-15'");
  EXPECT_EQ(Count(window), 1);
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("overlay_builds"), 1);  // the build keyed the open row
  EXPECT_EQ(Counter("rows_scanned"), 3);

  // NOW moves change the answer, never the index.
  Exec("SET NOW '2000-02-01'");
  EXPECT_EQ(Count(window), 1);
  Exec("SET NOW '1999-09-17'");
  EXPECT_EQ(Count(window), 0);  // NOW before the open row's start
  Exec("SET NOW '1999-10-20'");
  EXPECT_EQ(Count(window), 0);  // the open row ends before the window
  Exec("SET NOW '1999-11-15'");
  EXPECT_EQ(Count(window), 1);
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("overlay_builds"), 1);
  EXPECT_EQ(Counter("rows_scanned"), 3);
  EXPECT_EQ(Counter("probes"), 5);
}

TEST_F(SegmentedIndexSqlTest, IndexAndScanAgreeOnGroundingErrors) {
  // NOW + 60 days leaves the calendar under NOW 9999-12-01.
  Exec("INSERT INTO t VALUES ('{[1999-01-01, 1999-03-01]}')");
  Exec("INSERT INTO t VALUES ('{[NOW, NOW+60]}')");
  Exec("CREATE INDEX idx ON t (valid) USING interval");
  // A Period, unlike an Element, may not ground inverted:
  // [1999-10-01, NOW] fails under NOW 1999-09-17, [NOW, 2000-12-31]
  // under NOW 2001-06-01.
  Exec("CREATE TABLE p (valid Period)");
  Exec("INSERT INTO p VALUES ('[1999-01-01, 1999-03-01]')");
  Exec("INSERT INTO p VALUES ('[1999-10-01, NOW]')");
  Exec("INSERT INTO p VALUES ('[NOW, 2000-12-31]')");
  Exec("CREATE INDEX p_idx ON p (valid) USING interval");
  // All-absolute rows: only the probe value can fail.
  Exec("CREATE TABLE a (valid Element)");
  Exec("INSERT INTO a VALUES ('{[1999-01-01, 1999-03-01]}')");
  Exec("CREATE INDEX a_idx ON a (valid) USING interval");

  struct Case {
    const char* now;
    const char* sql;
    StatusCode code;
  };
  const Case cases[] = {
      {"'9999-12-01'",
       "SELECT count(*) FROM t WHERE overlaps(valid, "
       "'{[1999-01-01, 1999-12-31]}'::Element)",
       StatusCode::kOutOfRange},
      {"'9999-12-01'",
       "SELECT count(*) FROM t WHERE overlaps(valid, '{}'::Element)",
       StatusCode::kOutOfRange},
      {"'9999-12-01'",
       "SELECT count(*) FROM a, t WHERE overlaps(a.valid, t.valid)",
       StatusCode::kOutOfRange},
      {"'9999-12-01'",
       "SELECT count(*) FROM a WHERE overlaps(valid, "
       "'{[NOW, NOW+60]}'::Element)",
       StatusCode::kOutOfRange},
      {"'1999-09-17'",
       "SELECT count(*) FROM p WHERE overlaps(valid, "
       "'[1999-01-01, 1999-12-31]'::Period)",
       StatusCode::kInvalidArgument},
      {"'2001-06-01'",
       "SELECT count(*) FROM p WHERE overlaps(valid, "
       "'[1999-01-01, 1999-02-01]'::Period)",
       StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    Exec(std::string("SET NOW ") + c.now);
    for (const char* setting : {"off", "on"}) {
      Exec(std::string("SET interval_join ") + setting);
      Result<ResultSet> r = db_.Execute(c.sql);
      ASSERT_FALSE(r.ok()) << c.sql << " with interval_join " << setting;
      EXPECT_EQ(r.status().code(), c.code)
          << c.sql << " with interval_join " << setting << ": "
          << r.status().ToString();
    }
  }

  // Under NOWs every row grounds at, the same statements succeed and
  // agree.
  Exec("SET NOW '1999-11-15'");
  for (const Case& c : cases) {
    Exec("SET interval_join off");
    ResultSet scanned = Exec(c.sql);
    Exec("SET interval_join on");
    ResultSet probed = Exec(c.sql);
    ASSERT_EQ(scanned.rows.size(), 1u) << c.sql;
    ASSERT_EQ(probed.rows.size(), 1u) << c.sql;
    EXPECT_EQ(probed.rows[0][0].int_value(), scanned.rows[0][0].int_value())
        << c.sql;
  }
}

TEST_F(SegmentedIndexSqlTest, HeapMutationInvalidatesAbsoluteSegment) {
  Exec("INSERT INTO t VALUES ('{[1999-01-01, 1999-03-01]}')");
  Exec("CREATE INDEX idx ON t (valid) USING interval");
  Exec("SET NOW '1999-11-15'");

  const std::string window = "{[1999-02-01, 1999-02-10]}";
  EXPECT_EQ(Count(window), 1);
  EXPECT_EQ(Counter("absolute_builds"), 1);

  // Small INSERT/DELETE batches are replayed into the delta: the
  // absolute segment built above keeps serving.
  Exec("INSERT INTO t VALUES ('{[1999-02-05, 1999-06-01]}')");
  EXPECT_EQ(Count(window), 2);
  EXPECT_EQ(Counter("absolute_builds"), 1);

  Exec("DELETE FROM t WHERE overlaps(valid, '{[1999-05-01, 1999-06-01]}'"
       "::Element)");
  EXPECT_EQ(Count(window), 1);
  Exec("INSERT INTO t VALUES ('{[1999-02-07, 1999-02-08]}'), "
       "('{[1999-07-01, 1999-07-02]}'), ('{[1999-02-09, NOW]}')");
  EXPECT_EQ(Count(window), 3);
  EXPECT_EQ(Counter("absolute_builds"), 1);

  // ROLLBACK restores the table with fresh row ids: the change log
  // cannot say what moved, so the next probe rebuilds.
  Exec("BEGIN");
  Exec("DELETE FROM t WHERE overlaps(valid, '{[1999-02-07, 1999-02-08]}'"
       "::Element)");
  Exec("ROLLBACK");
  EXPECT_EQ(Count(window), 3);
  EXPECT_EQ(Counter("absolute_builds"), 2);

  // So does a burst that outgrows the delta.
  std::string burst = "INSERT INTO t VALUES ('{[1998-01-01, 1998-01-02]}')";
  for (size_t i = 0; i < kMinDeltaRebuildRows; ++i) {
    burst += ", ('{[1998-01-01, 1998-01-02]}')";
  }
  Exec(burst);
  EXPECT_EQ(Count(window), 3);
  EXPECT_EQ(Counter("absolute_builds"), 3);
}

TEST_F(SegmentedIndexSqlTest, IndexAgreesWithSeqScanAcrossNowOverrides) {
  for (int i = 0; i < 6; ++i) {
    Exec("INSERT INTO t VALUES ('{[1999-0" + std::to_string(i + 1) +
         "-01, 1999-0" + std::to_string(i + 1) + "-25]}')");
  }
  Exec("INSERT INTO t VALUES ('{[1999-10-01, NOW]}')");
  Exec("INSERT INTO t VALUES ('{[NOW-30, NOW]}')");
  // A closed period plus an open one that grounds inverted (and adds
  // nothing) before 2000-03-01, so the key is looser than the extent;
  // a future window; a period whose start passes its end after
  // 2000-01-30 (empty from then on).
  Exec("INSERT INTO t VALUES ('{[1999-01-05, 1999-01-20], "
       "[2000-03-01, NOW]}')");
  Exec("INSERT INTO t VALUES ('{[NOW+7, NOW+30]}')");
  Exec("INSERT INTO t VALUES ('{[NOW-30, 1999-12-31]}')");
  Exec("CREATE INDEX idx ON t (valid) USING interval");
  // An indexed Period column, with rows that ground at every NOW below.
  Exec("CREATE TABLE p (valid Period)");
  Exec("INSERT INTO p VALUES ('[1999-02-01, 1999-02-10]'), "
       "('[NOW-30, NOW]'), ('[1999-06-01, NOW]'), ('[NOW, 2000-12-31]'), "
       "('[NOW+7, NOW+30]')");
  Exec("CREATE INDEX p_idx ON p (valid) USING interval");

  auto expect_agreement = [this](const std::string& phase) {
    for (const char* now : {"'1999-11-15'", "'1999-09-17'", "'2000-06-01'"}) {
      Exec(std::string("SET NOW ") + now);
      for (const std::string window :
           {"[1999-03-15, 1999-05-10]", "[1999-11-01, 1999-12-31]",
            "[2000-05-01, 2000-07-01]", "[1998-01-01, 1998-12-31]",
            "[1999-01-25, 1999-01-25]"}) {
        for (const std::string& sql :
             {"SELECT count(*) FROM t WHERE overlaps(valid, '{" + window +
                  "}'::Element)",
              "SELECT count(*) FROM p WHERE overlaps(valid, '" + window +
                  "'::Period)"}) {
          Exec("SET interval_join off");
          const int64_t scanned = Exec(sql).rows[0][0].int_value();
          Exec("SET interval_join on");
          EXPECT_EQ(Exec(sql).rows[0][0].int_value(), scanned)
              << phase << ": NOW " << now << ": " << sql;
        }
      }
    }
  };
  expect_agreement("initial build");

  // Writes between probes — open-ended inserts, updates closing them,
  // deletes — are replayed into the deltas at moving NOWs (each
  // agreement pass ends at NOW 2000-06-01).
  Exec("INSERT INTO t VALUES ('{[1999-08-01, NOW]}'), "
       "('{[1999-12-15, NOW]}')");
  expect_agreement("open-ended inserts");
  Exec("UPDATE t SET valid = intersect(valid, '{[1990-01-01, 1999-11-30]}'"
       "::Element) WHERE overlaps(valid, '{[1999-08-02, 1999-08-03]}'"
       "::Element)");
  Exec("INSERT INTO t VALUES ('{[1999-05-20, NOW]}')");
  expect_agreement("closing update");
  Exec("DELETE FROM t WHERE overlaps(valid, '{[1999-03-02, 1999-03-03]}'"
       "::Element)");
  Exec("UPDATE t SET valid = intersect(valid, '{[1990-01-01, 2000-01-31]}'"
       "::Element) WHERE overlaps(valid, '{[1999-12-16, 1999-12-17]}'"
       "::Element)");
  expect_agreement("delete and second close");
  EXPECT_EQ(Counter("absolute_builds"), 1);

  Exec("BEGIN");
  Exec("INSERT INTO t VALUES ('{[1999-04-01, NOW]}')");
  Exec("DELETE FROM t WHERE overlaps(valid, '{[1999-05-02, 1999-05-03]}'"
       "::Element)");
  Exec("SET interval_join off");
  const int64_t in_txn = Count("{[1999-03-15, 1999-05-10]}");
  Exec("SET interval_join on");
  EXPECT_EQ(Count("{[1999-03-15, 1999-05-10]}"), in_txn);
  Exec("ROLLBACK");
  expect_agreement("rollback");
  EXPECT_EQ(Counter("absolute_builds"), 2);

  // A burst past the delta threshold rebuilds. (Its open-ended rows
  // ground empty at the first two NOWs.)
  std::string burst = "INSERT INTO t VALUES ('{[1998-03-01, 1998-03-31]}')";
  for (size_t i = 0; i < kMinDeltaRebuildRows; ++i) {
    burst += i % 2 == 0 ? ", ('{[2000-03-01, NOW]}')"
                        : ", ('{[1998-03-01, 1998-03-31]}')";
  }
  Exec(burst);
  expect_agreement("burst");
  EXPECT_EQ(Counter("absolute_builds"), 3);

  // Overflow the heap's change log between two probes with writes that
  // stay far below the threshold (updates of the same few rows, planned
  // without the index so they do not catch it up).
  Exec("SET interval_join off");
  const uint64_t before = Heap().version();
  while (Heap().version() - before <= kChangeLogCapacity) {
    Exec("UPDATE t SET valid = valid WHERE overlaps(valid, "
         "'{[1999-01-02, 1999-02-03]}'::Element)");
  }
  std::vector<RowId> changed;
  EXPECT_FALSE(Heap().ChangedSince(before, &changed));
  Exec("SET interval_join on");
  expect_agreement("change log overflow");
  EXPECT_EQ(Counter("absolute_builds"), 4);
  EXPECT_EQ(CheckTable().first, "ok");

  // Rot in an entry the delta added is caught in both directions, and
  // the probe after the failed CHECK rebuilds from the heap.
  fault::InjectAt("integrity.indexentry", 0);
  Exec("INSERT INTO t VALUES ('{[1997-01-01, 1997-01-31]}')");
  auto [status, detail] = CheckTable();
  fault::ClearAll();
  EXPECT_EQ(status, "corrupt");
  EXPECT_NE(detail.find("not a live heap row"), std::string::npos) << detail;
  EXPECT_NE(detail.find("missing from the index"), std::string::npos)
      << detail;
  EXPECT_EQ(Counter("absolute_builds"), 4);  // the rot came via the delta
  expect_agreement("after CHECK");
  EXPECT_EQ(Counter("absolute_builds"), 5);
  EXPECT_EQ(CheckTable().first, "ok");
}

TEST(SegmentedIndexConcurrencyTest, ConcurrentGetIntervalIndexIsRaceFree) {
  Database db;
  ASSERT_TRUE(datablade::Install(&db).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (valid Element)").ok());
  // 40 absolute rows far from the probe window, 10 open-ended rows
  // whose overlap with the window depends on NOW.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO t VALUES ('{[1990-01-01, 1990-06-01]}')")
            .ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO t VALUES ('{[1999-10-01, NOW]}')").ok());
  }
  ASSERT_TRUE(
      db.Execute("CREATE INDEX idx ON t (valid) USING interval").ok());
  const Table* table = *db.catalog().GetTable("t");

  // Probe window [1999-11-01, 2000-01-31].
  const int64_t qs = Chronon::Parse("1999-11-01")->seconds();
  const int64_t qe = Chronon::Parse("2000-01-31")->seconds();
  // Under now_in the open rows reach into the window; under now_out
  // (NOW before their start) they cover no time at all.
  const TxContext now_in(*Chronon::Parse("1999-11-15"));
  const TxContext now_out(*Chronon::Parse("1999-09-17"));

  const IntervalKey window = IntervalKey::Absolute(qs, qe);

  // The two NOW contexts deliberately alternate across threads while
  // other threads hold and probe views. Each row was keyed once by the
  // build below, so the NOW flips build nothing.
  ASSERT_TRUE(table->GetIntervalIndex(0, now_in).ok());
  const IndexStatsSnapshot built = *table->IntervalIndexStats(0);
  EXPECT_EQ(built.absolute_builds, 1u);
  EXPECT_EQ(built.overlay_builds, 1u);
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const bool in = (t + i) % 2 == 0;
        const TxContext& ctx = in ? now_in : now_out;
        Result<IntervalIndexView> view = table->GetIntervalIndex(0, ctx);
        if (!view.ok()) {
          errors.fetch_add(1);
          continue;
        }
        std::vector<RowId> out;
        view->FindOverlapping(window, &out);
        if (out.size() != (in ? 10u : 0u)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const IndexStatsSnapshot flipped = *table->IntervalIndexStats(0);
  EXPECT_EQ(flipped.absolute_builds, built.absolute_builds);
  EXPECT_EQ(flipped.overlay_builds, built.overlay_builds);
  EXPECT_EQ(flipped.rows_scanned, built.rows_scanned);

  // Now writes race the probes. As under the server's gate, GetView
  // runs shared and each write exclusive; views are probed with no lock
  // at all while later writes catch the index up (or, past the delta
  // threshold, rebuild it). A view answers from the snapshot it was
  // taken at: the 10 open rows (under now_in only) plus the rows the
  // writer had moved into the window by then.
  ASSERT_TRUE(db.Execute("CREATE TABLE w (id INT, valid Element)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Execute(i < 40 ? "INSERT INTO w VALUES (0, "
                                     "'{[1990-01-01, 1990-06-01]}')"
                                   : "INSERT INTO w VALUES (0, "
                                     "'{[1999-10-01, NOW]}')")
                    .ok());
  }
  ASSERT_TRUE(
      db.Execute("CREATE INDEX w_idx ON w (valid) USING interval").ok());
  const Table* written = *db.catalog().GetTable("w");
  std::shared_mutex gate;
  int absolute_in_window = 0;  // guarded by gate, as are the next two
  int open_in_window = 0;
  bool done = false;
  auto expected = [&](bool in) {
    return static_cast<size_t>(absolute_in_window +
                               (in ? 10 + open_in_window : 0));
  };
  auto probe = [&](const IntervalIndexView& view) {
    std::vector<RowId> out;
    view.FindOverlapping(window, &out);
    return out.size();
  };

  struct HeldView {
    IntervalIndexView view;
    size_t expected;
  };
  std::vector<HeldView> before_writes;
  for (bool in : {true, false}) {
    Result<IntervalIndexView> view =
        written->GetIntervalIndex(1, in ? now_in : now_out);
    ASSERT_TRUE(view.ok());
    before_writes.push_back({*view, expected(in)});
  }

  threads.clear();
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<HeldView> held;
      for (int i = 0;; ++i) {
        const bool in = (t + i) % 2 == 0;
        {
          std::shared_lock<std::shared_mutex> lock(gate);
          if (done) break;
          Result<IntervalIndexView> view =
              written->GetIntervalIndex(1, in ? now_in : now_out);
          if (!view.ok()) {
            errors.fetch_add(1);
            continue;
          }
          held.push_back({*view, expected(in)});
        }
        if (held.size() > 4) held.erase(held.begin());
        for (const HeldView& h : held) {
          if (probe(h.view) != h.expected) mismatches.fetch_add(1);
        }
        std::this_thread::yield();  // let the writer in
      }
    });
  }
  for (int i = 0; i < 160; ++i) {
    // Per cycle of four: an absolute row enters the window, an open row
    // enters it, the absolute row is moved out, the open row is closed
    // inside the window (its NOW-relative key replaced by an absolute
    // one in the delta).
    const int id = 1000 + i;
    std::string sql;
    switch (i % 4) {
      case 0:
        sql = "INSERT INTO w VALUES (" + std::to_string(id) +
              ", '{[1999-12-01, 1999-12-02]}')";
        break;
      case 1:
        sql = "INSERT INTO w VALUES (" + std::to_string(id) +
              ", '{[1999-11-01, NOW]}')";
        break;
      case 2:
        sql = "UPDATE w SET valid = '{[1990-01-01, 1990-02-01]}'::Element "
              "WHERE id = " + std::to_string(id - 2);
        break;
      default:
        sql = "UPDATE w SET valid = intersect(valid, "
              "'{[1999-11-01, 1999-11-05]}'::Element) WHERE id = " +
              std::to_string(id - 2);
        break;
    }
    std::unique_lock<std::shared_mutex> lock(gate);
    Result<ResultSet> r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    const int delta[4][2] = {{1, 0}, {0, 1}, {-1, 0}, {1, -1}};
    absolute_in_window += delta[i % 4][0];
    open_in_window += delta[i % 4][1];
  }
  {
    std::unique_lock<std::shared_mutex> lock(gate);
    done = true;
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  for (const HeldView& h : before_writes) {
    EXPECT_EQ(probe(h.view), h.expected) << "a pre-write view moved";
  }
  Result<IntervalIndexView> after = written->GetIntervalIndex(1, now_in);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(probe(*after), expected(true));
  EXPECT_EQ(expected(true), 50u);  // 10 open + 40 closed inside the window
  EXPECT_GT(written->IntervalIndexStats(1)->absolute_builds, 1u);
}

}  // namespace
}  // namespace tip::engine
