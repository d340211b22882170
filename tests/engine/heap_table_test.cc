#include "engine/storage/heap_table.h"

#include <gtest/gtest.h>

#include <vector>

namespace tip::engine {
namespace {

Row R(int64_t v) { return Row{Datum::Int(v)}; }

TEST(HeapTableTest, InsertAndGet) {
  HeapTable t;
  RowId a = t.Insert(R(1));
  RowId b = t.Insert(R(2));
  EXPECT_NE(a, b);
  ASSERT_NE(t.Get(a), nullptr);
  EXPECT_EQ((*t.Get(a))[0].int_value(), 1);
  EXPECT_EQ((*t.Get(b))[0].int_value(), 2);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(HeapTableTest, DeleteTombstones) {
  HeapTable t;
  RowId a = t.Insert(R(1));
  RowId b = t.Insert(R(2));
  ASSERT_TRUE(t.Delete(a).ok());
  EXPECT_EQ(t.Get(a), nullptr);
  EXPECT_NE(t.Get(b), nullptr);
  EXPECT_EQ(t.row_count(), 1u);
  // Double delete and bogus ids fail.
  EXPECT_FALSE(t.Delete(a).ok());
  EXPECT_FALSE(t.Delete(MakeRowId(99, 0)).ok());
}

TEST(HeapTableTest, UpdateInPlaceKeepsRowId) {
  HeapTable t;
  RowId a = t.Insert(R(1));
  ASSERT_TRUE(t.Update(a, R(42)).ok());
  EXPECT_EQ((*t.Get(a))[0].int_value(), 42);
  ASSERT_TRUE(t.Delete(a).ok());
  EXPECT_FALSE(t.Update(a, R(7)).ok());
}

TEST(HeapTableTest, ScanVisitsLiveRowsInOrder) {
  HeapTable t;
  std::vector<RowId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(t.Insert(R(i)));
  ASSERT_TRUE(t.Delete(ids[3]).ok());
  ASSERT_TRUE(t.Delete(ids[7]).ok());
  HeapTable::Cursor cursor = t.Scan();
  RowId id;
  const Row* row;
  std::vector<int64_t> seen;
  while (cursor.Next(&id, &row)) seen.push_back((*row)[0].int_value());
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 4, 5, 6, 8, 9}));
}

TEST(HeapTableTest, SpansMultiplePages) {
  HeapTable t;
  const int n = static_cast<int>(kRowsPerPage) * 3 + 5;
  std::vector<RowId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(t.Insert(R(i)));
  EXPECT_GT(RowIdPage(ids.back()), 2u);
  EXPECT_EQ(t.row_count(), static_cast<size_t>(n));
  // Every row retrievable by its id.
  for (int i = 0; i < n; i += 37) {
    ASSERT_NE(t.Get(ids[static_cast<size_t>(i)]), nullptr);
    EXPECT_EQ((*t.Get(ids[static_cast<size_t>(i)]))[0].int_value(), i);
  }
  // Full scan sees all rows exactly once.
  HeapTable::Cursor cursor = t.Scan();
  RowId id;
  const Row* row;
  int count = 0;
  while (cursor.Next(&id, &row)) ++count;
  EXPECT_EQ(count, n);
}

TEST(HeapTableTest, VersionBumpsOnEveryWrite) {
  HeapTable t;
  uint64_t v0 = t.version();
  RowId a = t.Insert(R(1));
  EXPECT_GT(t.version(), v0);
  uint64_t v1 = t.version();
  ASSERT_TRUE(t.Update(a, R(2)).ok());
  EXPECT_GT(t.version(), v1);
  uint64_t v2 = t.version();
  ASSERT_TRUE(t.Delete(a).ok());
  EXPECT_GT(t.version(), v2);

  // The change log names the row each write since a version touched.
  RowId b = t.Insert(R(3));
  std::vector<RowId> changed;
  ASSERT_TRUE(t.ChangedSince(v0, &changed));
  EXPECT_EQ(changed, (std::vector<RowId>{a, a, a, b}));
  changed.clear();
  ASSERT_TRUE(t.ChangedSince(t.version(), &changed));
  EXPECT_TRUE(changed.empty());

  // It forgets versions older than its capacity, and every version
  // before a ResetTo (row ids are reassigned).
  const uint64_t v3 = t.version();
  for (size_t i = 0; i < kChangeLogCapacity; ++i) {
    ASSERT_TRUE(t.Update(b, R(4)).ok());
  }
  EXPECT_FALSE(t.ChangedSince(v3 - 1, &changed));
  ASSERT_TRUE(t.ChangedSince(v3, &changed));
  EXPECT_EQ(changed.size(), kChangeLogCapacity);
  const uint64_t v4 = t.version();
  t.ResetTo({R(5)});
  EXPECT_FALSE(t.ChangedSince(v4, &changed));
}

TEST(HeapTableTest, RowIdEncoding) {
  RowId id = MakeRowId(5, 17);
  EXPECT_EQ(RowIdPage(id), 5u);
  EXPECT_EQ(RowIdSlot(id), 17u);
}

}  // namespace
}  // namespace tip::engine
