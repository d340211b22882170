#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "datablade/datablade.h"

namespace tip::datablade {
namespace internal {

namespace {

using engine::AggregateDef;
using engine::AggregateState;
using engine::Datum;
using engine::EvalContext;

/// `group_union`: the union of a collection of Elements. Incoming
/// elements are grounded and their periods accumulated; the single
/// sort-and-coalesce at Final keeps the whole aggregation
/// O(total periods * log(total periods)) instead of quadratic pairwise
/// folding. This aggregate is what expresses temporal *coalescing* in
/// plain SQL (the paper's length(group_union(valid)) example).
class GroupUnionState final : public AggregateState {
 public:
  explicit GroupUnionState(const TipTypes* t) : t_(t) {}

  Status Step(const Datum& value, EvalContext& ctx) override {
    const Element& element = GetElement(value);
    if (element.is_absolute()) {
      // Already its own grounding: append the stored periods directly.
      for (const Period& p : element.periods()) {
        TIP_ASSIGN_OR_RETURN(GroundedPeriod g, p.Ground(ctx.tx));
        periods_.push_back(g);
      }
      return Status::OK();
    }
    TIP_ASSIGN_OR_RETURN(GroundedElement e, element.Ground(ctx.tx));
    periods_.insert(periods_.end(), e.periods().begin(), e.periods().end());
    return Status::OK();
  }

  /// Partial union states just concatenate their period vectors — the
  /// sort-and-coalesce still happens exactly once, at Final, so the
  /// parallel aggregation keeps the serial path's O(n log n) bound.
  Status Merge(AggregateState&& other, EvalContext&) override {
    GroupUnionState& o = static_cast<GroupUnionState&>(other);
    if (periods_.empty()) {
      periods_ = std::move(o.periods_);
    } else {
      periods_.insert(periods_.end(),
                      std::make_move_iterator(o.periods_.begin()),
                      std::make_move_iterator(o.periods_.end()));
    }
    return Status::OK();
  }

  Result<Datum> Final(EvalContext&) override {
    return MakeElement(*t_, Element::FromGrounded(
                                GroundedElement::FromPeriods(
                                    std::move(periods_))));
  }

 private:
  const TipTypes* t_;
  std::vector<GroundedPeriod> periods_;
};

/// `group_intersect`: the intersection of a collection of Elements.
/// Folding pairwise is safe here — intersections only shrink, so the
/// accumulator is bounded by the smallest input.
class GroupIntersectState final : public AggregateState {
 public:
  explicit GroupIntersectState(const TipTypes* t) : t_(t) {}

  Status Step(const Datum& value, EvalContext& ctx) override {
    // Once the accumulator is empty it can never grow again; skip the
    // grounding and intersection work for every remaining row.
    if (acc_.has_value() && acc_->IsEmpty()) return Status::OK();
    TIP_ASSIGN_OR_RETURN(GroundedElement e,
                         GetElement(value).Ground(ctx.tx));
    if (!acc_.has_value()) {
      acc_ = std::move(e);
    } else {
      acc_ = GroundedElement::Intersect(*acc_, e);
    }
    return Status::OK();
  }

  /// An unset accumulator is the identity (no rows seen); otherwise the
  /// merged state is the pairwise intersection of the partials.
  Status Merge(AggregateState&& other, EvalContext&) override {
    GroupIntersectState& o = static_cast<GroupIntersectState&>(other);
    if (!o.acc_.has_value()) return Status::OK();
    if (!acc_.has_value()) {
      acc_ = std::move(o.acc_);
    } else if (!acc_->IsEmpty()) {
      acc_ = GroundedElement::Intersect(*acc_, *o.acc_);
    }
    return Status::OK();
  }

  Result<Datum> Final(EvalContext&) override {
    // The intersection of the empty collection is the empty element
    // (choosing "everything" would require a universe element).
    if (!acc_.has_value()) return MakeElement(*t_, Element());
    return MakeElement(*t_, Element::FromGrounded(*acc_));
  }

 private:
  const TipTypes* t_;
  std::optional<GroundedElement> acc_;
};

/// SUM over Spans, with checked accumulation; empty input yields NULL,
/// per SQL. This is what makes the paper's (deliberately wrong)
/// `SUM(length(valid))` example expressible at all.
class SumSpanState final : public AggregateState {
 public:
  explicit SumSpanState(const TipTypes* t) : t_(t) {}

  Status Step(const Datum& value, EvalContext&) override {
    TIP_ASSIGN_OR_RETURN(sum_, sum_.Add(GetSpan(value)));
    seen_ = true;
    return Status::OK();
  }

  Status Merge(AggregateState&& other, EvalContext&) override {
    const SumSpanState& o = static_cast<SumSpanState&>(other);
    if (!o.seen_) return Status::OK();
    TIP_ASSIGN_OR_RETURN(sum_, sum_.Add(o.sum_));
    seen_ = true;
    return Status::OK();
  }

  Result<Datum> Final(EvalContext&) override {
    if (!seen_) return Datum::Null();
    return MakeSpan(*t_, sum_);
  }

 private:
  const TipTypes* t_;
  Span sum_;
  bool seen_ = false;
};

}  // namespace

Status RegisterAggregates(engine::Database* db, const TipTypes& t) {
  engine::AggregateRegistry& reg = db->aggregates();
  // The TipTypes block must outlive the registry; park a copy on the
  // heap owned by the registration closures.
  auto shared = std::make_shared<TipTypes>(t);

  AggregateDef group_union;
  group_union.name = "group_union";
  group_union.param = t.element;
  group_union.result = t.element;
  group_union.make_state = [shared] {
    return std::make_unique<GroupUnionState>(shared.get());
  };
  group_union.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(group_union)));

  AggregateDef group_intersect;
  group_intersect.name = "group_intersect";
  group_intersect.param = t.element;
  group_intersect.result = t.element;
  group_intersect.make_state = [shared] {
    return std::make_unique<GroupIntersectState>(shared.get());
  };
  group_intersect.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(group_intersect)));

  AggregateDef sum_span;
  sum_span.name = "sum";
  sum_span.param = t.span;
  sum_span.result = t.span;
  sum_span.make_state = [shared] {
    return std::make_unique<SumSpanState>(shared.get());
  };
  sum_span.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(sum_span)));
  return Status::OK();
}

namespace {

using engine::IntervalKey;

/// a - b, saturated to the int64 range.
int64_t SaturatingSub(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_sub_overflow(a, b, &out)) {
    return b < 0 ? INT64_MAX : INT64_MIN;
  }
  return out;
}

/// A key admitting no NOW: the value fails to ground under every one.
void AdmitNone(IntervalKey* key) {
  key->now_min = INT64_MAX;
  key->now_max = INT64_MIN;
}

/// Widens `key` by one stored period, without grounding it: an absolute
/// endpoint joins the absolute part of its bound, a NOW-relative one the
/// NOW part, and narrows the admitted NOWs to those that keep NOW plus
/// its offset inside the calendar (where Instant::Ground succeeds).
void WidenByPeriod(const Period& p, IntervalKey* key) {
  auto admit = [key](int64_t offset) {
    key->now_min = std::max(
        key->now_min, SaturatingSub(Chronon::Min().seconds(), offset));
    key->now_max = std::min(
        key->now_max, SaturatingSub(Chronon::Max().seconds(), offset));
  };
  if (p.start().is_absolute()) {
    key->start = std::min(key->start, p.start().chronon().seconds());
  } else {
    const int64_t offset = p.start().offset().seconds();
    key->now_start = std::min(key->now_start.value_or(offset), offset);
    admit(offset);
  }
  if (p.end().is_absolute()) {
    key->end = std::max(key->end, p.end().chronon().seconds());
  } else {
    const int64_t offset = p.end().offset().seconds();
    key->now_end = std::max(key->now_end.value_or(offset), offset);
    admit(offset);
  }
}

}  // namespace

Status RegisterAccessMethods(engine::Database* db, const TipTypes& t) {
  // NOW-free key extractors: the support functions the interval access
  // method needs for each indexable type. They read the stored periods
  // once and never ground them: the index evaluates a key at each
  // probe's NOW. An Element's key spans all its periods, so it may be
  // wider than the Element's extent at a NOW where one of its
  // NOW-relative periods grounds inverted (and contributes nothing).
  TIP_RETURN_IF_ERROR(db->RegisterIntervalKeyFn(
      t.element, [](const Datum& v) {
        IntervalKey key;
        for (const Period& p : GetElement(v).periods()) {
          WidenByPeriod(p, &key);
          // An inverted absolute period (only the unchecked Period
          // constructor makes one) fails Element::Ground at every NOW.
          if (p.is_absolute() && p.end().chronon() < p.start().chronon()) {
            AdmitNone(&key);
          }
        }
        return key;
      }));
  TIP_RETURN_IF_ERROR(db->RegisterIntervalKeyFn(
      t.period, [](const Datum& v) {
        const Period& p = GetPeriod(v);
        IntervalKey key;
        WidenByPeriod(p, &key);
        // Period::Ground fails once the grounded start passes the end:
        // admit only the NOWs that keep them in order.
        const Instant& s = p.start();
        const Instant& e = p.end();
        if (s.is_absolute() && e.is_absolute()) {
          if (e.chronon() < s.chronon()) AdmitNone(&key);
        } else if (s.is_absolute()) {  // s <= NOW + b
          key.now_min = std::max(key.now_min,
                                 SaturatingSub(s.chronon().seconds(),
                                               e.offset().seconds()));
        } else if (e.is_absolute()) {  // NOW + a <= e
          key.now_max = std::min(key.now_max,
                                 SaturatingSub(e.chronon().seconds(),
                                               s.offset().seconds()));
        } else if (e.offset() < s.offset()) {
          AdmitNone(&key);
        }
        return key;
      }));
  TIP_RETURN_IF_ERROR(db->RegisterIntervalKeyFn(
      t.instant, [](const Datum& v) {
        const Instant& instant = GetInstant(v);
        IntervalKey key;
        WidenByPeriod(Period(instant, instant), &key);
        return key;
      }));
  TIP_RETURN_IF_ERROR(db->RegisterIntervalKeyFn(
      t.chronon, [](const Datum& v) {
        const int64_t s = GetChronon(v).seconds();
        return IntervalKey::Absolute(s, s);
      }));
  return Status::OK();
}

}  // namespace internal
}  // namespace tip::datablade
