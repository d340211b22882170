#include "ttime/tracked_table.h"

#include <gtest/gtest.h>

#include "testing/transports.h"

namespace tip::ttime {
namespace {

using transports::Transport;

/// Transaction-time maintenance on top of TIP: versions are never
/// destroyed, the symbolic NOW marks current versions, and AS OF slices
/// reconstruct any past state of the table. TrackedTableTest.* runs
/// embedded, TrackedTableOverTipdTest.* through an in-process tipd.
class TrackedTableTest : public ::testing::Test {
 protected:
  virtual Transport transport() const { return Transport::kEmbedded; }

  void SetUp() override {
    ASSERT_TRUE(harness_.Start(transport()).ok());
    Result<std::unique_ptr<client::Connection>> conn = harness_.Connect();
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = std::move(*conn);
    SetNow("1999-01-01");
    Result<TrackedTable> table = TrackedTable::Create(
        conn_.get(), "staff", "who CHAR(12), role CHAR(12), salary INT");
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    table_ = std::make_unique<TrackedTable>(std::move(*table));
  }

  void SetNow(const char* when) {
    ASSERT_TRUE(conn_->SetNow(*Chronon::Parse(when)).ok());
  }

  std::string Snapshot(const client::ResultSet& r) {
    std::string out;
    for (size_t i = 0; i < r.row_count(); ++i) {
      if (i > 0) out += ";";
      for (size_t j = 0; j < r.column_count(); ++j) {
        if (j > 0) out += ",";
        out += r.GetText(i, j);
      }
    }
    return out;
  }

  // The cases both transports run (TRACKED_TEST).
  void InsertMakesCurrentVersions();
  void UpdateClosesAndAsserts();
  void AsOfReconstructsPastStates();
  void DeleteIsLogical();
  void BitemporalWithValidElement();
  void SameChrononChurnStaysConsistent();
  void AttachValidates();
  void UpdateWithEmptyWhereTouchesAllCurrent();

  transports::TransportHarness harness_;
  std::unique_ptr<client::Connection> conn_;
  std::unique_ptr<TrackedTable> table_;
};

using TrackedTableOverTipdTest = transports::OverTipd<TrackedTableTest>;

#define TRACKED_TEST(Name) \
  TIP_TRANSPORT_TEST(TrackedTableTest, TrackedTableOverTipdTest, Name)

TRACKED_TEST(InsertMakesCurrentVersions) {
  ASSERT_TRUE(table_->Insert("'ada', 'engineer', 100").ok());
  ASSERT_TRUE(table_->Insert("'grace', 'admiral', 120").ok());
  Result<client::ResultSet> current =
      table_->Current("who, role, salary", "");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->row_count(), 2u);
  // tt_end is the symbolic NOW.
  Result<client::ResultSet> raw = table_->History("");
  ASSERT_TRUE(raw.ok());
  const int tt_end = raw->FindColumn("tt_end");
  EXPECT_EQ(raw->GetText(0, static_cast<size_t>(tt_end)), "NOW");
}

TRACKED_TEST(UpdateClosesAndAsserts) {
  ASSERT_TRUE(table_->Insert("'ada', 'engineer', 100").ok());
  SetNow("1999-06-01");
  Result<int64_t> updated = table_->Update(
      {{"salary", "salary + 20"}, {"role", "'principal'"}},
      "who = 'ada'");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 1);

  // Current state reflects the update.
  Result<client::ResultSet> current =
      table_->Current("who, role, salary", "");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(Snapshot(*current), "ada,principal,120");

  // History has both versions; the closed one ends just before the
  // update's transaction time.
  Result<client::ResultSet> history = table_->History("");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->row_count(), 2u);
  EXPECT_EQ(history->GetText(0, 1), "engineer");
  EXPECT_EQ(history->GetText(0, 4), "1999-05-31 23:59:59");
  EXPECT_EQ(history->GetText(1, 1), "principal");
  EXPECT_EQ(history->GetText(1, 4), "NOW");
}

TRACKED_TEST(AsOfReconstructsPastStates) {
  ASSERT_TRUE(table_->Insert("'ada', 'engineer', 100").ok());
  SetNow("1999-06-01");
  ASSERT_TRUE(table_->Update({{"salary", "110"}}, "who = 'ada'").ok());
  SetNow("1999-09-01");
  ASSERT_TRUE(table_->Update({{"salary", "125"}}, "who = 'ada'").ok());

  struct Case {
    const char* at;
    const char* expected;
  };
  const Case cases[] = {
      {"1999-03-01", "ada,100"},
      {"1999-06-01", "ada,110"},  // the update instant sees the new row
      {"1999-05-31 23:59:59", "ada,100"},
      {"1999-08-15", "ada,110"},
      {"1999-12-31", "ada,125"},
  };
  for (const Case& c : cases) {
    Result<client::ResultSet> slice =
        table_->AsOf(*Chronon::Parse(c.at), "who, salary", "");
    ASSERT_TRUE(slice.ok()) << c.at;
    EXPECT_EQ(Snapshot(*slice), c.expected) << c.at;
  }
  // Before the table had data: empty.
  Result<client::ResultSet> early =
      table_->AsOf(*Chronon::Parse("1998-01-01"), "who", "");
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->row_count(), 0u);
}

TRACKED_TEST(DeleteIsLogical) {
  ASSERT_TRUE(table_->Insert("'ada', 'engineer', 100").ok());
  ASSERT_TRUE(table_->Insert("'grace', 'admiral', 120").ok());
  SetNow("1999-07-01");
  Result<int64_t> deleted = table_->Delete("who = 'ada'");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1);
  Result<client::ResultSet> current = table_->Current("who", "");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(Snapshot(*current), "grace");
  // The deleted row is still visible in an earlier slice.
  Result<client::ResultSet> before =
      table_->AsOf(*Chronon::Parse("1999-03-01"), "who", "");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->row_count(), 2u);
}

TRACKED_TEST(BitemporalWithValidElement) {
  // A tracked table whose user column is a TIP Element: transaction
  // time from the tracker, valid time from TIP — bitemporal data.
  Result<TrackedTable> rx = TrackedTable::Create(
      conn_.get(), "rx", "patient CHAR(12), valid Element");
  ASSERT_TRUE(rx.ok());
  ASSERT_TRUE(rx->Insert("'showbiz', '{[1999-02-01, 1999-03-01]}'").ok());
  SetNow("1999-05-01");
  // A retroactive correction: the prescription actually ran to April.
  ASSERT_TRUE(rx->Update({{"valid",
                           "union(valid, "
                           "'{[1999-03-01, 1999-04-01]}'::Element)"}},
                         "patient = 'showbiz'")
                  .ok());
  // The *recorded* belief in March vs after the correction:
  Result<client::ResultSet> believed_then =
      rx->AsOf(*Chronon::Parse("1999-03-15"), "valid", "");
  ASSERT_TRUE(believed_then.ok());
  EXPECT_EQ(believed_then->GetText(0, 0), "{[1999-02-01, 1999-03-01]}");
  Result<client::ResultSet> believed_now = rx->Current("valid", "");
  ASSERT_TRUE(believed_now.ok());
  EXPECT_EQ(believed_now->GetText(0, 0), "{[1999-02-01, 1999-04-01]}");
}

TRACKED_TEST(SameChrononChurnStaysConsistent) {
  ASSERT_TRUE(table_->Insert("'ada', 'engineer', 100").ok());
  // Update twice without advancing NOW: versions collapse but never
  // invert, and the current state is the latest.
  ASSERT_TRUE(table_->Update({{"salary", "101"}}, "who = 'ada'").ok());
  ASSERT_TRUE(table_->Update({{"salary", "102"}}, "who = 'ada'").ok());
  Result<client::ResultSet> current =
      table_->Current("who, salary", "");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(Snapshot(*current), "ada,102");
  // History is still fully queryable (no inverted periods).
  Result<client::ResultSet> history = table_->History("");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->row_count(), 3u);
}

TRACKED_TEST(AttachValidates) {
  EXPECT_FALSE(TrackedTable::Attach(conn_.get(), "nosuch").ok());
  ASSERT_TRUE(conn_->Execute("CREATE TABLE plain (x INT)").ok());
  EXPECT_FALSE(TrackedTable::Attach(conn_.get(), "plain").ok());
  Result<TrackedTable> again = TrackedTable::Attach(conn_.get(), "staff");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->name(), "staff");
}

TRACKED_TEST(UpdateWithEmptyWhereTouchesAllCurrent) {
  ASSERT_TRUE(table_->Insert("'ada', 'engineer', 100").ok());
  ASSERT_TRUE(table_->Insert("'grace', 'admiral', 120").ok());
  SetNow("1999-04-01");
  Result<int64_t> updated = table_->Update({{"salary", "salary * 2"}}, "");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 2);
  Result<client::ResultSet> current =
      table_->Current("sum(salary)", "");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->GetInt(0, 0), 440);
}

}  // namespace
}  // namespace tip::ttime
