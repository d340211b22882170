#ifndef TIP_CORE_ELEMENT_H_
#define TIP_CORE_ELEMENT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/chronon.h"
#include "core/period.h"
#include "core/span.h"
#include "core/tx_context.h"

namespace tip {

/// A fully absolute temporal element in canonical form: a sorted vector of
/// pairwise disjoint, non-adjacent GroundedPeriods (any two consecutive
/// periods are separated by at least one chronon). The canonical form is
/// what makes every set operation a linear merge — the paper's Section 3
/// claim ("efficient algorithms that execute in time linear in the number
/// of periods").
class GroundedElement {
 public:
  /// The empty element.
  GroundedElement() = default;

  /// Normalizes an arbitrary collection of periods (sorts + coalesces
  /// overlapping or adjacent ones). O(n log n); O(n) if already sorted.
  static GroundedElement FromPeriods(std::vector<GroundedPeriod> periods);

  /// The singleton element {p}.
  static GroundedElement Of(const GroundedPeriod& p) {
    return GroundedElement(std::vector<GroundedPeriod>{p});
  }

  const std::vector<GroundedPeriod>& periods() const { return periods_; }
  size_t size() const { return periods_.size(); }
  bool IsEmpty() const { return periods_.empty(); }

  /// Set algebra over canonical operands; each is a single linear merge
  /// pass, O(|a| + |b|).
  static GroundedElement Union(const GroundedElement& a,
                               const GroundedElement& b);
  static GroundedElement Intersect(const GroundedElement& a,
                                   const GroundedElement& b);
  /// a \ b.
  static GroundedElement Difference(const GroundedElement& a,
                                    const GroundedElement& b);

  /// True iff the two elements share at least one chronon. Linear with
  /// early exit.
  bool Overlaps(const GroundedElement& other) const;
  /// True iff every chronon of `other` is in `this`. Linear.
  bool Contains(const GroundedElement& other) const;
  /// O(log n) membership test.
  bool Contains(Chronon c) const;

  /// Total number of chronons covered, as a Span. Never overflows: the
  /// periods are disjoint and all lie in the calendar range.
  Span TotalDuration() const;

  /// Bounding period [first.start, last.end]. Precondition: !IsEmpty().
  GroundedPeriod Extent() const;

  /// `{[a, b], [c, d]}` (paper notation); `{}` when empty.
  std::string ToString() const;

  friend bool operator==(const GroundedElement&, const GroundedElement&) =
      default;

 private:
  explicit GroundedElement(std::vector<GroundedPeriod> canonical)
      : periods_(std::move(canonical)) {}

  std::vector<GroundedPeriod> periods_;  // canonical (see class comment)
};

/// An `Element` is a set of Periods — the timestamp type TIP attaches to
/// tuples ("from January to April, and then from July to October"). Its
/// periods may contain NOW-relative endpoints (`{[1999-10-01, NOW]}`), so
/// the stored form preserves the user's periods verbatim; all algebra
/// grounds the element against a TxContext first.
///
/// An all-absolute Element is eagerly normalized to canonical form, making
/// grounding free and algebra linear — the common fast path in the DBMS.
class Element {
 public:
  /// The empty element.
  Element() : absolute_canonical_(true) {}

  /// Builds an element from arbitrary periods. All-absolute inputs are
  /// canonicalized eagerly; inputs with NOW-relative endpoints are stored
  /// verbatim (their canonical form depends on the transaction time).
  /// An inverted absolute period (possible only via the unchecked Period
  /// constructor) is also stored verbatim; Ground reports it as an error.
  static Element FromPeriods(std::vector<Period> periods);

  static Element FromGrounded(const GroundedElement& grounded);

  /// The singleton element {p}.
  static Element Of(const Period& p) {
    return FromPeriods(std::vector<Period>{p});
  }

  const std::vector<Period>& periods() const { return periods_; }
  size_t size() const { return periods_.size(); }
  bool IsEmpty() const { return periods_.empty(); }

  /// True iff the stored periods are all absolute and in canonical form,
  /// so they are their own grounding under any NOW: routines read them
  /// in place. False when a period has a NOW-relative endpoint, and for
  /// an inverted absolute period stored verbatim (see FromPeriods).
  bool is_absolute() const { return absolute_canonical_; }

  /// Substitutes the transaction time for NOW in every period and
  /// normalizes. Fails if any period grounds out of range or inverted.
  Result<GroundedElement> Ground(const TxContext& ctx) const;

  /// Parses `{[i, i], [i, i], ...}` or `{}`.
  static Result<Element> Parse(std::string_view text);

  /// Ungrounded form, e.g. `{[1999-10-01, NOW]}`.
  std::string ToString() const;

  /// Structural equality on the stored periods.
  friend bool operator==(const Element&, const Element&) = default;

 private:
  Element(std::vector<Period> periods, bool absolute_canonical)
      : periods_(std::move(periods)),
        absolute_canonical_(absolute_canonical) {}

  std::vector<Period> periods_;
  bool absolute_canonical_;
};

/// Element-level routines with the paper's names and semantics. Each
/// returns an absolute result. Union, intersect and difference ground
/// both operands under `ctx`; the predicates and accessors below them
/// ground only a NOW-relative operand and read an all-absolute one's
/// stored periods in place (the same answer: such an Element is its own
/// grounding).
Result<Element> ElementUnion(const Element& a, const Element& b,
                             const TxContext& ctx);
Result<Element> ElementIntersect(const Element& a, const Element& b,
                                 const TxContext& ctx);
Result<Element> ElementDifference(const Element& a, const Element& b,
                                  const TxContext& ctx);
Result<bool> ElementOverlaps(const Element& a, const Element& b,
                             const TxContext& ctx);
Result<bool> ElementContains(const Element& a, const Element& b,
                             const TxContext& ctx);
Result<bool> ElementContainsChronon(const Element& a, Chronon c,
                                    const TxContext& ctx);
/// Total covered time (the paper's `length`).
Result<Span> ElementLength(const Element& a, const TxContext& ctx);
/// Start of the first period (the paper's `start`); fails on empty.
Result<Chronon> ElementStart(const Element& a, const TxContext& ctx);
/// End of the last period; fails on empty.
Result<Chronon> ElementEnd(const Element& a, const TxContext& ctx);
/// First / last period in canonical order; fail on empty.
Result<GroundedPeriod> ElementFirst(const Element& a, const TxContext& ctx);
Result<GroundedPeriod> ElementLast(const Element& a, const TxContext& ctx);
/// Bounding period [start of first, end of last]; fails on empty.
Result<GroundedPeriod> ElementExtent(const Element& a, const TxContext& ctx);

}  // namespace tip

#endif  // TIP_CORE_ELEMENT_H_
