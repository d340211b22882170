#include "browser/whatif_session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "testing/transports.h"

namespace tip::browser {
namespace {

using transports::Transport;

/// The Browser's what-if loop (Section 4) on both client transports:
/// WhatIfSessionTest.* embedded, WhatIfSessionOverTipdTest.* through an
/// in-process tipd, as Figure 1 routes Browser -> client library -> DBMS.
class WhatIfSessionTest : public ::testing::Test {
 protected:
  virtual Transport transport() const { return Transport::kEmbedded; }

  void SetUp() override {
    ASSERT_TRUE(harness_.Start(transport()).ok());
    Result<std::unique_ptr<client::Connection>> conn = harness_.Connect();
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = std::move(*conn);
    Must("CREATE TABLE p (patient CHAR(12), drug CHAR(12), "
         "valid Element)");
    Must("INSERT INTO p VALUES "
         "('showbiz', 'diabeta', '{[1999-10-01, NOW]}'), "
         "('showbiz', 'aspirin', '{[1999-09-15, 1999-10-20]}'), "
         "('janedoe', 'tylenol', '{[1999-01-10, 1999-02-10]}')");
  }

  void Must(std::string_view sql) {
    Result<client::ResultSet> r = conn_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  static Chronon Day(const char* text) { return *Chronon::Parse(text); }

  // The cases both transports run (WHATIF_TEST).
  void NowMoveChangesTheView();
  void SupersededEvaluationIsCancelledMidQuery();
  void RefusedNowMoveIsReportedByWait();

  transports::TransportHarness harness_;
  std::unique_ptr<client::Connection> conn_;
};

using WhatIfSessionOverTipdTest = transports::OverTipd<WhatIfSessionTest>;

#define WHATIF_TEST(Name) \
  TIP_TRANSPORT_TEST(WhatIfSessionTest, WhatIfSessionOverTipdTest, Name)

WHATIF_TEST(NowMoveChangesTheView) {
  WhatIfSession session(conn_.get(), "SELECT * FROM p", "valid");
  session.Begin(Day("1999-10-10"));
  Result<TimelineView> earlier = session.Wait();
  ASSERT_TRUE(earlier.ok()) << earlier.status().ToString();
  ASSERT_EQ(earlier->rows().size(), 3u);
  EXPECT_EQ(earlier->rows()[0].valid.Extent().end().ToString(),
            "1999-10-10");

  // Before the diabeta prescription starts, its validity is empty.
  session.Begin(Day("1999-09-01"));
  Result<TimelineView> before = session.Wait();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_TRUE(before->rows()[0].valid.IsEmpty());
  EXPECT_EQ(session.evaluations_started(), 2u);
  EXPECT_EQ(session.evaluations_cancelled(), 0u);
  EXPECT_FALSE(conn_->in_transaction());
}

WHATIF_TEST(SupersededEvaluationIsCancelledMidQuery) {
  // Filler rows make the browse query slow under a NOW past 2000 (5 ms
  // a row, some 2 s in all) and quick before it.
  Must("CREATE TABLE ticks (n INT)");
  std::string values = "INSERT INTO ticks VALUES (0)";
  for (int i = 1; i < 400; ++i) values += ", (" + std::to_string(i) + ")";
  Must(values);
  WhatIfSession session(
      conn_.get(),
      "SELECT p.drug, p.valid FROM p, ticks WHERE "
      "tip_sleep_ms(ticks.n * 0 + CASE WHEN transaction_time() > "
      "'2000-01-01'::Chronon THEN 5 ELSE 0 END) >= 0 AND ticks.n = 0",
      "valid");
  session.Begin(Day("2000-06-01"));
  // Let the slow evaluation get into its query, then move the slider.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  session.Begin(Day("1999-11-15"));
  Result<TimelineView> view = session.Wait();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(session.evaluations_started(), 2u);
  EXPECT_EQ(session.evaluations_cancelled(), 1u);
  // The view is the latest NOW's: diabeta's open end grounds there.
  ASSERT_EQ(view->rows().size(), 3u);
  EXPECT_EQ(view->rows()[0].valid.Extent().end().ToString(), "1999-11-15");

  // The superseded query was interrupted, not waited out.
  Result<client::ResultSet> cancels =
      conn_->Execute("SELECT tip_guard_stats('cancels')");
  ASSERT_TRUE(cancels.ok()) << cancels.status().ToString();
  EXPECT_GE(cancels->GetInt(0, 0), 1);
  EXPECT_FALSE(conn_->in_transaction());
}

WHATIF_TEST(RefusedNowMoveIsReportedByWait) {
  // An open transaction pins NOW, so the session refuses the move, and
  // Wait reports the refusal instead of a view under the wrong NOW.
  ASSERT_TRUE(conn_->Begin().ok());
  WhatIfSession session(conn_.get(), "SELECT * FROM p", "valid");
  session.Begin(Day("1999-10-10"));
  Result<TimelineView> view = session.Wait();
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find("not allowed inside a transaction"),
            std::string::npos)
      << view.status().ToString();
  EXPECT_EQ(session.evaluations_started(), 0u);
  ASSERT_TRUE(conn_->Rollback().ok());

  session.Begin(Day("1999-10-10"));
  Result<TimelineView> after = session.Wait();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows()[0].valid.Extent().end().ToString(), "1999-10-10");
}

}  // namespace
}  // namespace tip::browser
