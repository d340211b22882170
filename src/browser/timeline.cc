#include "browser/timeline.h"

#include <algorithm>
#include <cassert>

namespace tip::browser {

Result<TimelineView> TimelineView::Create(const client::ResultSet& result,
                                          std::string_view temporal_column,
                                          const TxContext& ctx) {
  const int col_index = result.FindColumn(temporal_column);
  if (col_index < 0) {
    return Status::NotFound("no column named '" +
                            std::string(temporal_column) + "'");
  }
  const size_t col = static_cast<size_t>(col_index);

  std::vector<std::string> headers;
  for (size_t c = 0; c < result.column_count(); ++c) {
    if (c != col) headers.push_back(result.column_name(c));
  }

  std::vector<TimelineRow> rows;
  rows.reserve(result.row_count());
  for (size_t r = 0; r < result.row_count(); ++r) {
    TimelineRow out;
    out.fields.reserve(headers.size());
    for (size_t c = 0; c < result.column_count(); ++c) {
      if (c != col) out.fields.push_back(result.GetText(r, c));
    }
    if (!result.IsNull(r, col)) {
      const engine::Datum& d = result.raw().rows[r][col];
      // The browsable types, per the paper: Chronon, Instant, Period or
      // Element. Dispatch on the stored payload via the known type ids.
      Result<GroundedElement> valid = [&]() -> Result<GroundedElement> {
        const engine::TypeId tid = d.type_id();
        if (tid == result.tip_types().chronon) {
          return GroundedElement::Of(
              GroundedPeriod::At(result.GetChronon(r, col)));
        }
        if (tid == result.tip_types().instant) {
          TIP_ASSIGN_OR_RETURN(Chronon c,
                               result.GetInstant(r, col).Ground(ctx));
          return GroundedElement::Of(GroundedPeriod::At(c));
        }
        if (tid == result.tip_types().period) {
          TIP_ASSIGN_OR_RETURN(GroundedPeriod p,
                               result.GetPeriod(r, col).Ground(ctx));
          return GroundedElement::Of(p);
        }
        if (tid == result.tip_types().element) {
          return result.GetElement(r, col).Ground(ctx);
        }
        return Status::TypeError(
            "column '" + std::string(temporal_column) +
            "' is not of a temporal type (Chronon, Instant, Period or "
            "Element)");
      }();
      if (!valid.ok()) return valid.status();
      out.valid = std::move(*valid);
    }
    rows.push_back(std::move(out));
  }
  return TimelineView(std::move(headers), std::move(rows));
}

Result<GroundedPeriod> TimelineView::FullExtent() const {
  bool seen = false;
  Chronon lo, hi;
  for (const TimelineRow& row : rows_) {
    if (row.valid.IsEmpty()) continue;
    GroundedPeriod extent = row.valid.Extent();
    if (!seen || extent.start() < lo) lo = extent.start();
    if (!seen || extent.end() > hi) hi = extent.end();
    seen = true;
  }
  if (!seen) {
    return Status::InvalidArgument("no tuple has a non-empty validity");
  }
  return GroundedPeriod::Make(lo, hi);
}

std::vector<bool> TimelineView::HighlightMask(
    const TimeWindow& window) const {
  std::vector<bool> mask;
  mask.reserve(rows_.size());
  Result<GroundedPeriod> window_period =
      GroundedPeriod::Make(window.start, window.end);
  GroundedElement window_element =
      window_period.ok() ? GroundedElement::Of(*window_period)
                         : GroundedElement();
  for (const TimelineRow& row : rows_) {
    mask.push_back(row.valid.Overlaps(window_element));
  }
  return mask;
}

Result<TimeWindow> TimelineView::WindowAt(double position,
                                          const Span& span) const {
  if (position < 0.0 || position > 1.0) {
    return Status::InvalidArgument("slider position must be in [0, 1]");
  }
  if (span.IsNegative() || span.IsZero()) {
    return Status::InvalidArgument("window span must be positive");
  }
  TIP_ASSIGN_OR_RETURN(GroundedPeriod extent, FullExtent());
  const int64_t total = extent.end().seconds() - extent.start().seconds();
  const int64_t window = std::min(span.seconds() - 1, total);
  const int64_t slack = total - window;
  const int64_t start =
      extent.start().seconds() +
      static_cast<int64_t>(position * static_cast<double>(slack));
  TIP_ASSIGN_OR_RETURN(Chronon s, Chronon::FromSeconds(start));
  TIP_ASSIGN_OR_RETURN(Chronon e, Chronon::FromSeconds(start + window));
  return TimeWindow{s, e};
}

std::string TimelineView::Render(const TimeWindow& window,
                                 int width) const {
  assert(width > 1);
  std::string out;
  const int64_t ws = window.start.seconds();
  const int64_t we = window.end.seconds();
  const double scale =
      static_cast<double>(width) / static_cast<double>(we - ws + 1);

  // Column widths for the label area.
  std::vector<size_t> col_width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    col_width[c] = headers_[c].size();
  }
  for (const TimelineRow& row : rows_) {
    for (size_t c = 0; c < row.fields.size() && c < col_width.size(); ++c) {
      col_width[c] = std::max(col_width[c], row.fields[c].size());
    }
  }

  auto pad = [](const std::string& s, size_t w) {
    std::string padded = s;
    padded.append(w > s.size() ? w - s.size() : 0, ' ');
    return padded;
  };

  // Header line.
  out += "   ";
  for (size_t c = 0; c < headers_.size(); ++c) {
    out += pad(headers_[c], col_width[c]) + "  ";
  }
  out += "|" + std::string(static_cast<size_t>(width), '-') + "|\n";

  const std::vector<bool> mask = HighlightMask(window);
  for (size_t r = 0; r < rows_.size(); ++r) {
    const TimelineRow& row = rows_[r];
    out += mask[r] ? " * " : "   ";
    for (size_t c = 0; c < headers_.size(); ++c) {
      out += pad(c < row.fields.size() ? row.fields[c] : "",
                 col_width[c]) + "  ";
    }
    // Timeline strip: '=' where the tuple is valid inside the window.
    std::string strip(static_cast<size_t>(width), ' ');
    for (const GroundedPeriod& p : row.valid.periods()) {
      const int64_t s = std::max(p.start().seconds(), ws);
      const int64_t e = std::min(p.end().seconds(), we);
      if (s > e) continue;
      int from = static_cast<int>(static_cast<double>(s - ws) * scale);
      int to = static_cast<int>(static_cast<double>(e - ws) * scale);
      from = std::clamp(from, 0, width - 1);
      to = std::clamp(to, 0, width - 1);
      for (int i = from; i <= to; ++i) {
        strip[static_cast<size_t>(i)] = '=';
      }
    }
    out += "|" + strip + "|\n";
  }

  // Footer: window endpoints under the strip.
  std::string footer(3, ' ');
  for (size_t c = 0; c < headers_.size(); ++c) {
    footer.append(col_width[c] + 2, ' ');
  }
  const std::string left = window.start.ToString();
  const std::string right = window.end.ToString();
  std::string axis = left;
  const size_t total = static_cast<size_t>(width) + 2;
  if (axis.size() + right.size() + 1 < total) {
    axis.append(total - axis.size() - right.size(), ' ');
    axis += right;
  }
  out += footer + axis + "\n";
  return out;
}

std::vector<size_t> TimelineView::Density(const TimeWindow& window,
                                          int width) const {
  const size_t n = static_cast<size_t>(width);
  // Each run of buckets a row touches adds one at its first bucket and
  // takes one away after its last; a running sum turns that into counts.
  std::vector<int64_t> steps(n + 1, 0);
  const int64_t ws = window.start.seconds();
  const int64_t we = window.end.seconds();
  const double scale =
      static_cast<double>(width) / static_cast<double>(we - ws + 1);
  for (const TimelineRow& row : rows_) {
    // A row's grounded periods are sorted and disjoint, so their
    // buckets never go back: a period starts counting after the last
    // bucket the row has counted, and counts each bucket once per row.
    int next = 0;
    for (const GroundedPeriod& p : row.valid.periods()) {
      const int64_t s = std::max(p.start().seconds(), ws);
      const int64_t e = std::min(p.end().seconds(), we);
      if (s > e) continue;
      int from = static_cast<int>(static_cast<double>(s - ws) * scale);
      int to = static_cast<int>(static_cast<double>(e - ws) * scale);
      from = std::max(std::clamp(from, 0, width - 1), next);
      to = std::clamp(to, 0, width - 1);
      if (from > to) continue;
      ++steps[static_cast<size_t>(from)];
      --steps[static_cast<size_t>(to) + 1];
      next = to + 1;
    }
  }
  std::vector<size_t> buckets(n);
  int64_t running = 0;
  for (size_t i = 0; i < n; ++i) {
    running += steps[i];
    buckets[i] = static_cast<size_t>(running);
  }
  return buckets;
}

std::string TimelineView::RenderDensity(const TimeWindow& window,
                                        int width) const {
  std::vector<size_t> buckets = Density(window, width);
  std::string strip;
  strip.reserve(buckets.size());
  for (size_t count : buckets) {
    if (count == 0) {
      strip.push_back(' ');
    } else if (count < 10) {
      strip.push_back(static_cast<char>('0' + count));
    } else {
      strip.push_back('#');
    }
  }
  return "|" + strip + "|";
}

}  // namespace tip::browser
