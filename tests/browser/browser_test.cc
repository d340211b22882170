#include "browser/timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "datablade/datablade.h"

namespace tip::browser {
namespace {

/// The TIP Browser's information display (Figure 2): window,
/// highlighting, timeline segments, slider, NOW override.
class BrowserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<std::unique_ptr<client::Connection>> conn =
        client::Connection::Open();
    ASSERT_TRUE(conn.ok());
    conn_ = std::move(*conn);
    conn_->SetNow(*Chronon::Parse("1999-11-15"));
    Must("CREATE TABLE p (patient CHAR(12), drug CHAR(12), "
         "valid Element)");
    Must("INSERT INTO p VALUES "
         "('showbiz', 'diabeta', '{[1999-10-01, NOW]}'), "
         "('showbiz', 'aspirin', '{[1999-09-15, 1999-10-20]}'), "
         "('janedoe', 'tylenol', '{[1999-01-10, 1999-02-10]}')");
  }

  client::ResultSet Must(std::string_view sql) {
    Result<client::ResultSet> r = conn_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r)
                  : client::ResultSet(engine::ResultSet{},
                                      conn_->tip_types(),
                                      &conn_->database().types());
  }

  TimelineView MustView(std::string_view column = "valid") {
    client::ResultSet result = Must("SELECT * FROM p");
    Result<TimelineView> view = TimelineView::Create(
        result, column, conn_->database().CurrentTx());
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    return std::move(*view);
  }

  TimeWindow Window(const char* start, const char* end) {
    return TimeWindow{*Chronon::Parse(start), *Chronon::Parse(end)};
  }

  std::unique_ptr<client::Connection> conn_;
};

TEST_F(BrowserTest, CreateGroundsValidity) {
  TimelineView view = MustView();
  ASSERT_EQ(view.rows().size(), 3u);
  // The NOW endpoint grounds under the connection's override.
  EXPECT_EQ(view.rows()[0].valid.Extent().end().ToString(), "1999-11-15");
  // Non-temporal columns become the label fields.
  ASSERT_EQ(view.headers().size(), 2u);
  EXPECT_EQ(view.rows()[0].fields[1], "diabeta");
}

TEST_F(BrowserTest, CreateRejectsBadColumns) {
  client::ResultSet result = Must("SELECT * FROM p");
  TxContext ctx = conn_->database().CurrentTx();
  EXPECT_FALSE(TimelineView::Create(result, "nosuch", ctx).ok());
  EXPECT_EQ(TimelineView::Create(result, "patient", ctx).status().code(),
            StatusCode::kTypeError);
}

TEST_F(BrowserTest, BrowseByAnyTemporalType) {
  // "The user may choose to browse ... according to any attribute of
  // type Chronon, Instant, Period, or Element."
  Must("CREATE TABLE mixed (c Chronon, i Instant, pd Period, e Element)");
  Must("INSERT INTO mixed VALUES ('1999-05-01', 'NOW-5', "
       "'[1999-04-01, NOW]', '{[1999-03-01, 1999-03-10]}')");
  client::ResultSet result = Must("SELECT * FROM mixed");
  TxContext ctx = conn_->database().CurrentTx();
  for (const char* col : {"c", "i", "pd", "e"}) {
    Result<TimelineView> view = TimelineView::Create(result, col, ctx);
    ASSERT_TRUE(view.ok()) << col;
    EXPECT_FALSE(view->rows()[0].valid.IsEmpty()) << col;
  }
}

TEST_F(BrowserTest, FullExtentSpansAllRows) {
  TimelineView view = MustView();
  GroundedPeriod extent = *view.FullExtent();
  EXPECT_EQ(extent.start().ToString(), "1999-01-10");
  EXPECT_EQ(extent.end().ToString(), "1999-11-15");
}

TEST_F(BrowserTest, HighlightMaskMatchesWindow) {
  TimelineView view = MustView();
  // Window over late September: both showbiz prescriptions, not jane's.
  std::vector<bool> mask =
      view.HighlightMask(Window("1999-09-20", "1999-10-05"));
  EXPECT_EQ(mask, (std::vector<bool>{true, true, false}));
  // January window: only jane.
  mask = view.HighlightMask(Window("1999-01-01", "1999-01-31"));
  EXPECT_EQ(mask, (std::vector<bool>{false, false, true}));
  // Gap window (nothing valid in early September before the 15th).
  mask = view.HighlightMask(Window("1999-09-01", "1999-09-05"));
  EXPECT_EQ(mask, (std::vector<bool>{false, false, false}));
}

TEST_F(BrowserTest, SliderPlacesWindowAlongExtent) {
  TimelineView view = MustView();
  Span month = *Span::FromDays(30);
  TimeWindow left = *view.WindowAt(0.0, month);
  EXPECT_EQ(left.start.ToString(), "1999-01-10");
  TimeWindow right = *view.WindowAt(1.0, month);
  EXPECT_EQ(right.end.ToString(), "1999-11-15");
  TimeWindow middle = *view.WindowAt(0.5, month);
  EXPECT_LT(left.start, middle.start);
  EXPECT_LT(middle.start, right.start);
  EXPECT_FALSE(view.WindowAt(1.5, month).ok());
  EXPECT_FALSE(view.WindowAt(0.5, Span::Zero()).ok());
}

TEST_F(BrowserTest, RenderDrawsSegmentsAndHighlights) {
  TimelineView view = MustView();
  std::string out = view.Render(Window("1999-09-20", "1999-10-05"), 40);
  // Highlighted rows carry '*'; jane's row does not.
  EXPECT_NE(out.find(" * showbiz"), std::string::npos);
  EXPECT_NE(out.find("   janedoe"), std::string::npos);
  // Segments drawn with '='; jane's strip is empty in this window.
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < out.size()) {
    size_t nl = out.find('\n', pos);
    lines.push_back(out.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_GE(lines.size(), 5u);
  EXPECT_NE(lines[1].find('='), std::string::npos);  // diabeta row
  EXPECT_NE(lines[2].find('='), std::string::npos);  // aspirin row
  EXPECT_EQ(lines[3].find('='), std::string::npos);  // jane's row
  // Footer shows the window endpoints.
  EXPECT_NE(out.find("1999-09-20"), std::string::npos);
  EXPECT_NE(out.find("1999-10-05"), std::string::npos);
}

TEST_F(BrowserTest, WhatIfNowOverrideChangesTheView) {
  // Browsing under an overridden NOW changes the grounded validity of
  // NOW-relative tuples (Section 4's what-if analysis).
  conn_->SetNow(*Chronon::Parse("1999-10-10"));
  TimelineView earlier = MustView();
  EXPECT_EQ(earlier.rows()[0].valid.Extent().end().ToString(),
            "1999-10-10");
  // Move NOW before the diabeta prescription starts: its validity
  // becomes empty and it is never highlighted.
  conn_->SetNow(*Chronon::Parse("1999-09-01"));
  TimelineView before = MustView();
  EXPECT_TRUE(before.rows()[0].valid.IsEmpty());
  std::vector<bool> mask =
      before.HighlightMask(Window("1999-01-01", "1999-12-31"));
  EXPECT_EQ(mask, (std::vector<bool>{false, true, true}));
}

TEST_F(BrowserTest, DensityCountsTuplesPerBucket) {
  TimelineView view = MustView();
  // Four equal buckets over September..October 1999.
  TimeWindow window = Window("1999-09-01", "1999-10-31 23:59:59");
  std::vector<size_t> density = view.Density(window, 4);
  ASSERT_EQ(density.size(), 4u);
  // Buckets are ~15.25 days. Tylenol ended in February and never
  // appears; aspirin runs Sep 15 - Oct 20; diabeta starts Oct 1, which
  // lands at the very end of bucket 1.
  EXPECT_EQ(density[0], 1u);  // early Sep: aspirin only
  EXPECT_EQ(density[1], 2u);  // aspirin + diabeta's first day
  EXPECT_EQ(density[2], 2u);  // October: both
  EXPECT_EQ(density[3], 2u);  // late Oct: aspirin (to 10-20) + diabeta
  std::string strip = view.RenderDensity(window, 4);
  EXPECT_EQ(strip, "|1222|");
}

TEST_F(BrowserTest, DensityEmptyWindowIsBlank) {
  TimelineView view = MustView();
  std::string strip =
      view.RenderDensity(Window("1998-01-01", "1998-02-01"), 6);
  EXPECT_EQ(strip, "|      |");
}

// The density count as it was first written: a flag per bucket for
// every row, then a pass over all the buckets. Kept as the reference
// that Density must equal.
std::vector<size_t> ReferenceDensity(const TimelineView& view,
                                     const TimeWindow& window, int width) {
  std::vector<size_t> buckets(static_cast<size_t>(width), 0);
  const int64_t ws = window.start.seconds();
  const int64_t we = window.end.seconds();
  const double scale =
      static_cast<double>(width) / static_cast<double>(we - ws + 1);
  for (const TimelineRow& row : view.rows()) {
    std::vector<bool> touched(static_cast<size_t>(width), false);
    for (const GroundedPeriod& p : row.valid.periods()) {
      const int64_t s = std::max(p.start().seconds(), ws);
      const int64_t e = std::min(p.end().seconds(), we);
      if (s > e) continue;
      int from = static_cast<int>(static_cast<double>(s - ws) * scale);
      int to = static_cast<int>(static_cast<double>(e - ws) * scale);
      from = std::clamp(from, 0, width - 1);
      to = std::clamp(to, 0, width - 1);
      for (int i = from; i <= to; ++i) {
        touched[static_cast<size_t>(i)] = true;
      }
    }
    for (int i = 0; i < width; ++i) {
      if (touched[static_cast<size_t>(i)]) ++buckets[static_cast<size_t>(i)];
    }
  }
  return buckets;
}

// Random views, windows and widths: periods inside, across and outside
// the window, ending on a bucket edge or the second before one, several
// short periods of one row in one bucket, NOW-relative ends (some of
// which ground inverted and drop out), NULL validities, and width 1.
TEST_F(BrowserTest, DensityMatchesThePerRowFlagCount) {
  const datablade::TipTypes& tip = conn_->tip_types();
  const int64_t now = conn_->database().CurrentTx().now.seconds();
  std::mt19937_64 rng(20261019);
  auto uniform = [&rng](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  auto at = [](int64_t seconds) {
    return Instant::Absolute(*Chronon::FromSeconds(seconds));
  };
  int edge_rounds = 0;
  for (int round = 0; round < 300; ++round) {
    const int width = round % 10 == 0 ? 1 : static_cast<int>(uniform(1, 90));
    // With a window of whole buckets every bucket edge is a second.
    const bool whole_buckets = round % 2 == 0;
    const int64_t bucket = uniform(1, 4000);
    const int64_t len = whole_buckets ? bucket * width : uniform(1, 400000);
    const int64_t ws = now - uniform(0, 2 * len);
    const int64_t we = ws + len - 1;
    auto edge = [&] { return ws + uniform(0, width) * len / width; };
    auto point = [&]() -> int64_t {
      switch (uniform(0, 3)) {
        case 0:
          return uniform(ws - len, we + len);  // may miss the window
        case 1:
          return edge() - uniform(0, 1);  // on an edge or just before
        default:
          return uniform(ws, we);
      }
    };
    engine::ResultSet raw;
    raw.columns = {{"id", engine::TypeId::kInt}, {"valid", tip.element}};
    const int64_t rows = uniform(0, 40);
    for (int64_t r = 0; r < rows; ++r) {
      engine::Row row = {engine::Datum::Int(r),
                         engine::Datum::NullOf(tip.element)};
      if (uniform(0, 15) > 0) {
        std::vector<Period> periods;
        const int64_t count = uniform(1, 6);
        for (int64_t k = 0; k < count; ++k) {
          int64_t a = point();
          int64_t b = uniform(0, 2) == 0 ? a + uniform(0, 3) : point();
          if (a > b) std::swap(a, b);
          Instant end = at(b);
          if (uniform(0, 5) == 0) {
            end = Instant::NowRelative(Span::FromSeconds(b - now));
          }
          periods.push_back(*Period::Make(at(a), end));
        }
        if (whole_buckets && bucket >= 8) {
          // Two periods in one bucket: the row counts it once.
          const int64_t first = ws + uniform(0, width - 1) * bucket;
          periods.push_back(*Period::Make(at(first + 1), at(first + 2)));
          periods.push_back(*Period::Make(at(first + 5), at(first + 6)));
          ++edge_rounds;
        }
        row[1] = datablade::MakeElement(tip, Element::FromPeriods(periods));
      }
      raw.rows.push_back(std::move(row));
    }
    client::ResultSet result(std::move(raw), tip,
                             &conn_->database().types());
    Result<TimelineView> view = TimelineView::Create(
        result, "valid", conn_->database().CurrentTx());
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    const TimeWindow window{*Chronon::FromSeconds(ws),
                            *Chronon::FromSeconds(we)};
    ASSERT_EQ(view->Density(window, width),
              ReferenceDensity(*view, window, width))
        << "round " << round << ": width " << width << ", window " << ws
        << ".." << we;
  }
  EXPECT_GT(edge_rounds, 100);
}

TEST_F(BrowserTest, NullValidityRowsNeverHighlight) {
  Must("INSERT INTO p VALUES ('ghost', 'nothing', NULL)");
  TimelineView view = MustView();
  ASSERT_EQ(view.rows().size(), 4u);
  EXPECT_TRUE(view.rows()[3].valid.IsEmpty());
  std::vector<bool> mask =
      view.HighlightMask(Window("1999-01-01", "1999-12-31"));
  EXPECT_FALSE(mask[3]);
}

}  // namespace
}  // namespace tip::browser
