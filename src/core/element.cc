#include "core/element.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"
#include "core/parse_limits.h"

namespace tip {

namespace {

// Returns true iff `periods` is already in canonical form: sorted by
// start, pairwise disjoint, and non-adjacent (gap of at least one
// chronon between consecutive periods).
bool IsCanonical(const std::vector<GroundedPeriod>& periods) {
  for (size_t i = 1; i < periods.size(); ++i) {
    if (periods[i - 1].end().seconds() + 1 >= periods[i].start().seconds()) {
      return false;
    }
  }
  return true;
}

// Merges sorted-by-start periods into canonical form in place.
// Precondition: `periods` sorted by (start, end).
void CoalesceSorted(std::vector<GroundedPeriod>* periods) {
  if (periods->empty()) return;
  size_t out = 0;
  for (size_t i = 1; i < periods->size(); ++i) {
    GroundedPeriod& last = (*periods)[out];
    const GroundedPeriod& cur = (*periods)[i];
    if (cur.start().seconds() <= last.end().seconds() + 1) {
      // Overlapping or adjacent: extend the accumulated period.
      if (cur.end() > last.end()) {
        last = *GroundedPeriod::Make(last.start(), cur.end());
      }
    } else {
      (*periods)[++out] = cur;
    }
  }
  periods->resize(out + 1);
}

// The endpoints of a canonical period, whichever representation holds
// it: a GroundedPeriod, or a stored Period of an all-absolute Element.
// The scans below are written once over both, so an absolute operand is
// read in place while a NOW-relative one is grounded first.
Chronon StartOf(const GroundedPeriod& p) { return p.start(); }
Chronon EndOf(const GroundedPeriod& p) { return p.end(); }
Chronon StartOf(const Period& p) { return p.start().chronon(); }
Chronon EndOf(const Period& p) { return p.end().chronon(); }

// True iff the canonical period lists `a` and `b` share a chronon.
// Linear with early exit.
template <typename A, typename B>
bool CanonicalOverlaps(const std::vector<A>& a, const std::vector<B>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (StartOf(a[i]) <= EndOf(b[j]) && StartOf(b[j]) <= EndOf(a[i])) {
      return true;
    }
    if (EndOf(a[i]) < EndOf(b[j])) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// True iff every chronon of `b` is in `a`. Linear.
template <typename A, typename B>
bool CanonicalContains(const std::vector<A>& a, const std::vector<B>& b) {
  size_t i = 0;
  for (const B& p : b) {
    while (i < a.size() && EndOf(a[i]) < StartOf(p)) ++i;
    if (i >= a.size() || StartOf(p) < StartOf(a[i]) ||
        EndOf(a[i]) < EndOf(p)) {
      return false;
    }
  }
  return true;
}

// O(log n) membership test.
template <typename A>
bool CanonicalContainsChronon(const std::vector<A>& a, Chronon c) {
  // Binary search for the first period whose end >= c.
  auto it = std::lower_bound(
      a.begin(), a.end(), c,
      [](const A& p, Chronon value) { return EndOf(p) < value; });
  return it != a.end() && StartOf(*it) <= c;
}

template <typename A>
Span CanonicalDuration(const std::vector<A>& a) {
  int64_t total = 0;
  for (const A& p : a) total += EndOf(p).seconds() - StartOf(p).seconds() + 1;
  return Span::FromSeconds(total);
}

// Calls `fn` with the canonical periods of `e` under `ctx`: the stored
// periods themselves when `e` is all-absolute (FromPeriods made them
// canonical), otherwise those of its grounding.
template <typename Fn>
auto WithCanonicalPeriods(const Element& e, const TxContext& ctx, Fn&& fn)
    -> decltype(fn(e.periods())) {
  if (e.is_absolute()) return fn(e.periods());
  TIP_ASSIGN_OR_RETURN(GroundedElement g, e.Ground(ctx));
  return fn(g.periods());
}

}  // namespace

GroundedElement GroundedElement::FromPeriods(
    std::vector<GroundedPeriod> periods) {
  if (IsCanonical(periods)) return GroundedElement(std::move(periods));
  std::sort(periods.begin(), periods.end(),
            [](const GroundedPeriod& a, const GroundedPeriod& b) {
              if (a.start() != b.start()) return a.start() < b.start();
              return a.end() < b.end();
            });
  CoalesceSorted(&periods);
  return GroundedElement(std::move(periods));
}

GroundedElement GroundedElement::Union(const GroundedElement& a,
                                       const GroundedElement& b) {
  // Single linear merge over two canonical operands.
  std::vector<GroundedPeriod> merged;
  merged.reserve(a.periods_.size() + b.periods_.size());
  size_t i = 0, j = 0;
  while (i < a.periods_.size() || j < b.periods_.size()) {
    const GroundedPeriod* next;
    if (j >= b.periods_.size() ||
        (i < a.periods_.size() &&
         a.periods_[i].start() <= b.periods_[j].start())) {
      next = &a.periods_[i++];
    } else {
      next = &b.periods_[j++];
    }
    if (!merged.empty() &&
        next->start().seconds() <= merged.back().end().seconds() + 1) {
      if (next->end() > merged.back().end()) {
        merged.back() = *GroundedPeriod::Make(merged.back().start(),
                                              next->end());
      }
    } else {
      merged.push_back(*next);
    }
  }
  return GroundedElement(std::move(merged));
}

GroundedElement GroundedElement::Intersect(const GroundedElement& a,
                                           const GroundedElement& b) {
  std::vector<GroundedPeriod> out;
  size_t i = 0, j = 0;
  while (i < a.periods_.size() && j < b.periods_.size()) {
    const GroundedPeriod& pa = a.periods_[i];
    const GroundedPeriod& pb = b.periods_[j];
    Chronon start = std::max(pa.start(), pb.start());
    Chronon end = std::min(pa.end(), pb.end());
    if (start <= end) out.push_back(*GroundedPeriod::Make(start, end));
    // Advance whichever period ends first; it cannot intersect anything
    // further in the other operand.
    if (pa.end() < pb.end()) {
      ++i;
    } else {
      ++j;
    }
  }
  // Intersection of canonical operands is canonical (result periods are
  // separated by at least the gaps of one operand).
  return GroundedElement(std::move(out));
}

GroundedElement GroundedElement::Difference(const GroundedElement& a,
                                            const GroundedElement& b) {
  std::vector<GroundedPeriod> out;
  size_t j = 0;
  for (const GroundedPeriod& pa : a.periods_) {
    // `cursor` is the start of the not-yet-subtracted remainder of pa.
    int64_t cursor = pa.start().seconds();
    const int64_t pa_end = pa.end().seconds();
    // Skip b-periods entirely before the remainder.
    while (j < b.periods_.size() &&
           b.periods_[j].end().seconds() < cursor) {
      ++j;
    }
    size_t k = j;
    while (k < b.periods_.size() &&
           b.periods_[k].start().seconds() <= pa_end) {
      const GroundedPeriod& pb = b.periods_[k];
      if (pb.start().seconds() > cursor) {
        out.push_back(*GroundedPeriod::Make(
            *Chronon::FromSeconds(cursor),
            *Chronon::FromSeconds(pb.start().seconds() - 1)));
      }
      cursor = std::max(cursor, pb.end().seconds() + 1);
      if (cursor > pa_end) break;
      ++k;
    }
    if (cursor <= pa_end) {
      out.push_back(*GroundedPeriod::Make(*Chronon::FromSeconds(cursor),
                                          pa.end()));
    }
    // Note: do not advance j past periods that may overlap the next pa.
  }
  return GroundedElement(std::move(out));
}

bool GroundedElement::Overlaps(const GroundedElement& other) const {
  return CanonicalOverlaps(periods_, other.periods_);
}

bool GroundedElement::Contains(const GroundedElement& other) const {
  return CanonicalContains(periods_, other.periods_);
}

bool GroundedElement::Contains(Chronon c) const {
  return CanonicalContainsChronon(periods_, c);
}

Span GroundedElement::TotalDuration() const {
  return CanonicalDuration(periods_);
}

GroundedPeriod GroundedElement::Extent() const {
  assert(!periods_.empty());
  return *GroundedPeriod::Make(periods_.front().start(),
                               periods_.back().end());
}

std::string GroundedElement::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < periods_.size(); ++i) {
    if (i > 0) out += ", ";
    out += periods_[i].ToString();
  }
  out += "}";
  return out;
}

Element Element::FromPeriods(std::vector<Period> periods) {
  bool all_absolute = true;
  for (const Period& p : periods) {
    if (!p.is_absolute()) {
      all_absolute = false;
      break;
    }
  }
  if (!all_absolute) {
    return Element(std::move(periods), /*absolute_canonical=*/false);
  }
  // Input that is already canonical (each period in order, and each
  // starting more than a second after the previous one ends) is kept as
  // it is: the normal case for every decoded value (wire, snapshot,
  // WAL), which were canonical when they were encoded.
  bool in_order = true;
  for (size_t i = 0; in_order && i < periods.size(); ++i) {
    const int64_t start = periods[i].start().chronon().seconds();
    in_order = start <= periods[i].end().chronon().seconds() &&
               (i == 0 ||
                start > periods[i - 1].end().chronon().seconds() + 1);
  }
  if (in_order) {
    return Element(std::move(periods), /*absolute_canonical=*/true);
  }
  // Eager normalization of the all-absolute fast path. Absolute periods
  // built through the validating factories satisfy start <= end, but the
  // unchecked Period(Instant, Instant) constructor can smuggle in an
  // inverted absolute period, so grounding is checked: on failure we
  // store the periods verbatim and let Element::Ground surface the
  // error to the caller that actually evaluates the element.
  std::vector<GroundedPeriod> grounded;
  grounded.reserve(periods.size());
  TxContext ctx;  // irrelevant: no NOW-relative endpoints
  for (const Period& p : periods) {
    Result<GroundedPeriod> g = p.Ground(ctx);
    if (!g.ok()) {
      return Element(std::move(periods), /*absolute_canonical=*/false);
    }
    grounded.push_back(*g);
  }
  GroundedElement canonical = GroundedElement::FromPeriods(
      std::move(grounded));
  std::vector<Period> out;
  out.reserve(canonical.size());
  for (const GroundedPeriod& p : canonical.periods()) {
    out.push_back(Period::FromGrounded(p));
  }
  return Element(std::move(out), /*absolute_canonical=*/true);
}

Element Element::FromGrounded(const GroundedElement& grounded) {
  std::vector<Period> out;
  out.reserve(grounded.size());
  for (const GroundedPeriod& p : grounded.periods()) {
    out.push_back(Period::FromGrounded(p));
  }
  return Element(std::move(out), /*absolute_canonical=*/true);
}

Result<GroundedElement> Element::Ground(const TxContext& ctx) const {
  std::vector<GroundedPeriod> grounded;
  grounded.reserve(periods_.size());
  for (const Period& p : periods_) {
    TIP_ASSIGN_OR_RETURN(Chronon start, p.start().Ground(ctx));
    TIP_ASSIGN_OR_RETURN(Chronon end, p.end().Ground(ctx));
    if (start > end) {
      // A NOW-relative period that grounds inverted denotes "no time
      // yet" under this transaction time — e.g. {[1999-10-01, NOW]}
      // browsed with NOW overridden to 1999-09-17 — and contributes
      // nothing (Clifford et al.'s semantics for NOW before start). An
      // inverted *absolute* period has no such reading: it can only
      // come from the unchecked Period constructor, and is an error.
      if (p.is_absolute()) {
        return Status::InvalidArgument("inverted absolute period " +
                                       p.ToString() + " in Element");
      }
      continue;
    }
    grounded.push_back(*GroundedPeriod::Make(start, end));
  }
  // FromPeriods detects already-canonical input (the absolute fast
  // path) and skips the sort+coalesce pass.
  return GroundedElement::FromPeriods(std::move(grounded));
}

Result<Element> Element::Parse(std::string_view text) {
  if (text.size() > kMaxLiteralBytes) {
    return Status::ResourceExhausted("Element literal exceeds " +
                                     std::to_string(kMaxLiteralBytes) +
                                     " bytes");
  }
  std::string_view s = StripAsciiWhitespace(text);
  if (s.size() < 2 || s.front() != '{' || s.back() != '}') {
    return Status::ParseError("Element literal must be braced: '" +
                              std::string(text) + "'");
  }
  std::string_view rest = StripAsciiWhitespace(s.substr(1, s.size() - 2));
  std::vector<Period> periods;
  // Strict grammar: '[' period ']' (',' '[' period ']')* — a comma is
  // legal only *between* two periods, so leading, trailing and doubled
  // commas are all rejected.
  while (!rest.empty()) {
    if (rest.front() != '[') {
      return Status::ParseError("unexpected text before period in Element "
                                "literal: '" + std::string(text) + "'");
    }
    size_t close = rest.find(']');
    if (close == std::string_view::npos) {
      return Status::ParseError("unterminated period in Element literal: '" +
                                std::string(text) + "'");
    }
    TIP_ASSIGN_OR_RETURN(Period p, Period::Parse(rest.substr(0, close + 1)));
    if (periods.size() >= kMaxElementPeriods) {
      return Status::ResourceExhausted("Element literal exceeds " +
                                       std::to_string(kMaxElementPeriods) +
                                       " periods");
    }
    periods.push_back(p);
    rest = StripAsciiWhitespace(rest.substr(close + 1));
    if (rest.empty()) break;
    if (rest.front() != ',') {
      return Status::ParseError("expected ',' between periods in Element "
                                "literal: '" + std::string(text) + "'");
    }
    rest = StripAsciiWhitespace(rest.substr(1));
    if (rest.empty()) {
      return Status::ParseError("trailing ',' in Element literal: '" +
                                std::string(text) + "'");
    }
  }
  return Element::FromPeriods(std::move(periods));
}

std::string Element::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < periods_.size(); ++i) {
    if (i > 0) out += ", ";
    out += periods_[i].ToString();
  }
  out += "}";
  return out;
}

Result<Element> ElementUnion(const Element& a, const Element& b,
                             const TxContext& ctx) {
  TIP_ASSIGN_OR_RETURN(GroundedElement ga, a.Ground(ctx));
  TIP_ASSIGN_OR_RETURN(GroundedElement gb, b.Ground(ctx));
  return Element::FromGrounded(GroundedElement::Union(ga, gb));
}

Result<Element> ElementIntersect(const Element& a, const Element& b,
                                 const TxContext& ctx) {
  TIP_ASSIGN_OR_RETURN(GroundedElement ga, a.Ground(ctx));
  TIP_ASSIGN_OR_RETURN(GroundedElement gb, b.Ground(ctx));
  return Element::FromGrounded(GroundedElement::Intersect(ga, gb));
}

Result<Element> ElementDifference(const Element& a, const Element& b,
                                  const TxContext& ctx) {
  TIP_ASSIGN_OR_RETURN(GroundedElement ga, a.Ground(ctx));
  TIP_ASSIGN_OR_RETURN(GroundedElement gb, b.Ground(ctx));
  return Element::FromGrounded(GroundedElement::Difference(ga, gb));
}

Result<bool> ElementOverlaps(const Element& a, const Element& b,
                             const TxContext& ctx) {
  return WithCanonicalPeriods(a, ctx, [&](const auto& pa) {
    return WithCanonicalPeriods(b, ctx, [&](const auto& pb) -> Result<bool> {
      return CanonicalOverlaps(pa, pb);
    });
  });
}

Result<bool> ElementContains(const Element& a, const Element& b,
                             const TxContext& ctx) {
  return WithCanonicalPeriods(a, ctx, [&](const auto& pa) {
    return WithCanonicalPeriods(b, ctx, [&](const auto& pb) -> Result<bool> {
      return CanonicalContains(pa, pb);
    });
  });
}

Result<bool> ElementContainsChronon(const Element& a, Chronon c,
                                    const TxContext& ctx) {
  return WithCanonicalPeriods(a, ctx, [c](const auto& pa) -> Result<bool> {
    return CanonicalContainsChronon(pa, c);
  });
}

Result<Span> ElementLength(const Element& a, const TxContext& ctx) {
  return WithCanonicalPeriods(a, ctx, [](const auto& pa) -> Result<Span> {
    return CanonicalDuration(pa);
  });
}

Result<Chronon> ElementStart(const Element& a, const TxContext& ctx) {
  return WithCanonicalPeriods(a, ctx, [](const auto& pa) -> Result<Chronon> {
    if (pa.empty()) {
      return Status::InvalidArgument("start() of an empty Element");
    }
    return StartOf(pa.front());
  });
}

Result<Chronon> ElementEnd(const Element& a, const TxContext& ctx) {
  return WithCanonicalPeriods(a, ctx, [](const auto& pa) -> Result<Chronon> {
    if (pa.empty()) {
      return Status::InvalidArgument("end() of an empty Element");
    }
    return EndOf(pa.back());
  });
}

Result<GroundedPeriod> ElementFirst(const Element& a, const TxContext& ctx) {
  return WithCanonicalPeriods(
      a, ctx, [](const auto& pa) -> Result<GroundedPeriod> {
        if (pa.empty()) {
          return Status::InvalidArgument("first() of an empty Element");
        }
        return GroundedPeriod::Make(StartOf(pa.front()), EndOf(pa.front()));
      });
}

Result<GroundedPeriod> ElementLast(const Element& a, const TxContext& ctx) {
  return WithCanonicalPeriods(
      a, ctx, [](const auto& pa) -> Result<GroundedPeriod> {
        if (pa.empty()) {
          return Status::InvalidArgument("last() of an empty Element");
        }
        return GroundedPeriod::Make(StartOf(pa.back()), EndOf(pa.back()));
      });
}

Result<GroundedPeriod> ElementExtent(const Element& a, const TxContext& ctx) {
  return WithCanonicalPeriods(
      a, ctx, [](const auto& pa) -> Result<GroundedPeriod> {
        if (pa.empty()) {
          return Status::InvalidArgument("extent() of an empty Element");
        }
        return GroundedPeriod::Make(StartOf(pa.front()), EndOf(pa.back()));
      });
}

}  // namespace tip
