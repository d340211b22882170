#include <string>
#include <vector>

#include "datablade/datablade.h"

namespace tip::datablade {
namespace internal {

namespace {

using engine::Datum;
using engine::DatumRefs;
using engine::EvalContext;
using engine::Routine;
using engine::RoutineFn;
using engine::TypeId;

Routine Make(std::string name, std::vector<TypeId> params, TypeId result,
             RoutineFn fn) {
  Routine r;
  r.name = std::move(name);
  r.params = std::move(params);
  r.result = result;
  r.fn = std::move(fn);
  return r;
}

// -- Temporal arithmetic (§2 "Arithmetic and comparison operators") ----------

Status RegisterArithmetic(engine::RoutineRegistry& reg, const TipTypes& t) {
  const TypeId i = TypeId::kInt;

  // Chronon arithmetic. Note what is *not* here: Chronon + Chronon has
  // no overload, so the binder reports the type error the paper
  // describes.
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "-", {t.chronon, t.chronon}, t.span,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        return MakeSpan(t, GetChronon(a[0]).Since(GetChronon(a[1])));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "+", {t.chronon, t.span}, t.chronon,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Chronon c, GetChronon(a[0]).Add(GetSpan(a[1])));
        return MakeChronon(t, c);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "+", {t.span, t.chronon}, t.chronon,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Chronon c, GetChronon(a[1]).Add(GetSpan(a[0])));
        return MakeChronon(t, c);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "-", {t.chronon, t.span}, t.chronon,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Chronon c,
                             GetChronon(a[0]).Subtract(GetSpan(a[1])));
        return MakeChronon(t, c);
      })));

  // Instant arithmetic preserves NOW-relativity: NOW-1 + 2 days is
  // NOW+1, not a fixed chronon.
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "+", {t.instant, t.span}, t.instant,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Instant v, GetInstant(a[0]).Add(GetSpan(a[1])));
        return MakeInstant(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "+", {t.span, t.instant}, t.instant,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Instant v, GetInstant(a[1]).Add(GetSpan(a[0])));
        return MakeInstant(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "-", {t.instant, t.span}, t.instant,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Instant v,
                             GetInstant(a[0]).Subtract(GetSpan(a[1])));
        return MakeInstant(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "-", {t.instant, t.instant}, t.span,
      [t](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Chronon x, GetInstant(a[0]).Ground(ctx.tx));
        TIP_ASSIGN_OR_RETURN(Chronon y, GetInstant(a[1]).Ground(ctx.tx));
        return MakeSpan(t, x.Since(y));
      })));

  // Span arithmetic.
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "+", {t.span, t.span}, t.span,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Span v, GetSpan(a[0]).Add(GetSpan(a[1])));
        return MakeSpan(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "-", {t.span, t.span}, t.span,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Span v, GetSpan(a[0]).Subtract(GetSpan(a[1])));
        return MakeSpan(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "*", {t.span, i}, t.span,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Span v,
                             GetSpan(a[0]).Multiply(a[1].int_value()));
        return MakeSpan(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "*", {i, t.span}, t.span,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Span v,
                             GetSpan(a[1]).Multiply(a[0].int_value()));
        return MakeSpan(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "/", {t.span, i}, t.span,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Span v, GetSpan(a[0]).Divide(a[1].int_value()));
        return MakeSpan(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "/", {t.span, t.span}, i,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(int64_t v,
                             GetSpan(a[0]).DivideBy(GetSpan(a[1])));
        return Datum::Int(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "neg", {t.span}, t.span,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        return MakeSpan(t, GetSpan(a[0]).Negate());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "abs", {t.span}, t.span,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        return MakeSpan(t, GetSpan(a[0]).Abs());
      })));
  return Status::OK();
}

// -- Allen's interval relations for Periods (§2, Ref [1]) --------------------

Status RegisterAllen(engine::RoutineRegistry& reg, const TipTypes& t) {
  struct NamedRelation {
    const char* name;
    AllenRelation relation;
  };
  static constexpr NamedRelation kRelations[] = {
      {"before", AllenRelation::kBefore},
      {"meets", AllenRelation::kMeets},
      {"overlaps", AllenRelation::kOverlaps},
      {"finished_by", AllenRelation::kFinishedBy},
      {"contains", AllenRelation::kContains},
      {"starts", AllenRelation::kStarts},
      {"equals", AllenRelation::kEquals},
      {"started_by", AllenRelation::kStartedBy},
      {"during", AllenRelation::kDuring},
      {"finishes", AllenRelation::kFinishes},
      {"overlapped_by", AllenRelation::kOverlappedBy},
      {"met_by", AllenRelation::kMetBy},
      {"after", AllenRelation::kAfter},
  };
  for (const NamedRelation& r : kRelations) {
    const AllenRelation relation = r.relation;
    // `overlaps` and `contains` on Periods are intentionally *not* the
    // bare Allen relations: SQL users expect overlaps(a, b) to mean
    // "shares a chronon" and contains(a, b) to mean "covers", both of
    // which span several Allen classes. The strict Allen test is
    // available as allen(a, b) = 'overlaps'.
    if (relation == AllenRelation::kOverlaps ||
        relation == AllenRelation::kContains) {
      continue;
    }
    TIP_RETURN_IF_ERROR(reg.Register(Make(
        r.name, {t.period, t.period}, TypeId::kBool,
        [relation](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
          TIP_ASSIGN_OR_RETURN(GroundedPeriod x,
                               GetPeriod(a[0]).Ground(ctx.tx));
          TIP_ASSIGN_OR_RETURN(GroundedPeriod y,
                               GetPeriod(a[1]).Ground(ctx.tx));
          return Datum::Bool(GroundedPeriod::Allen(x, y) == relation);
        })));
  }
  // The classifying routine: allen(p, q) names the unique relation.
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "allen", {t.period, t.period}, TypeId::kString,
      [](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(GroundedPeriod x,
                             GetPeriod(a[0]).Ground(ctx.tx));
        TIP_ASSIGN_OR_RETURN(GroundedPeriod y,
                             GetPeriod(a[1]).Ground(ctx.tx));
        return Datum::String(
            std::string(AllenRelationName(GroundedPeriod::Allen(x, y))));
      })));

  // Period predicates with the SQL-friendly inclusive semantics.
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "overlaps", {t.period, t.period}, TypeId::kBool,
      [](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(GroundedPeriod x,
                             GetPeriod(a[0]).Ground(ctx.tx));
        TIP_ASSIGN_OR_RETURN(GroundedPeriod y,
                             GetPeriod(a[1]).Ground(ctx.tx));
        return Datum::Bool(x.Overlaps(y));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "contains", {t.period, t.period}, TypeId::kBool,
      [](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(GroundedPeriod x,
                             GetPeriod(a[0]).Ground(ctx.tx));
        TIP_ASSIGN_OR_RETURN(GroundedPeriod y,
                             GetPeriod(a[1]).Ground(ctx.tx));
        return Datum::Bool(x.Contains(y));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "contains", {t.period, t.chronon}, TypeId::kBool,
      [](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(GroundedPeriod x,
                             GetPeriod(a[0]).Ground(ctx.tx));
        return Datum::Bool(x.Contains(GetChronon(a[1])));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "duration", {t.period}, t.span,
      [t](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(GroundedPeriod x,
                             GetPeriod(a[0]).Ground(ctx.tx));
        return MakeSpan(t, x.Duration());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "period", {t.instant, t.instant}, t.period,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Period p, Period::Make(GetInstant(a[0]),
                                                    GetInstant(a[1])));
        return MakePeriod(t, p);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "shift", {t.period, t.span}, t.period,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        const Period& p = GetPeriod(a[0]);
        const Span& s = GetSpan(a[1]);
        TIP_ASSIGN_OR_RETURN(Instant start, p.start().Add(s));
        TIP_ASSIGN_OR_RETURN(Instant end, p.end().Add(s));
        TIP_ASSIGN_OR_RETURN(Period shifted, Period::Make(start, end));
        return MakePeriod(t, shifted);
      })));
  return Status::OK();
}

// -- Element routines (§2: union, intersect, difference, overlaps, ...) ------

Status RegisterElementRoutines(engine::RoutineRegistry& reg,
                               const TipTypes& t) {
  using BinaryElementFn =
      Result<Element> (*)(const Element&, const Element&, const TxContext&);
  struct NamedBinary {
    const char* name;
    BinaryElementFn fn;
  };
  static constexpr NamedBinary kBinary[] = {
      {"union", &ElementUnion},
      {"intersect", &ElementIntersect},
      {"difference", &ElementDifference},
  };
  for (const NamedBinary& b : kBinary) {
    BinaryElementFn fn = b.fn;
    TIP_RETURN_IF_ERROR(reg.Register(Make(
        b.name, {t.element, t.element}, t.element,
        [t, fn](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
          TIP_ASSIGN_OR_RETURN(Element out, fn(GetElement(a[0]),
                                               GetElement(a[1]), ctx.tx));
          return MakeElement(t, out);
        })));
  }
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "overlaps", {t.element, t.element}, TypeId::kBool,
      [](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(bool v, ElementOverlaps(GetElement(a[0]),
                                                     GetElement(a[1]),
                                                     ctx.tx));
        return Datum::Bool(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "contains", {t.element, t.element}, TypeId::kBool,
      [](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(bool v, ElementContains(GetElement(a[0]),
                                                     GetElement(a[1]),
                                                     ctx.tx));
        return Datum::Bool(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "contains", {t.element, t.chronon}, TypeId::kBool,
      [](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(bool v,
                             ElementContainsChronon(GetElement(a[0]),
                                                    GetChronon(a[1]),
                                                    ctx.tx));
        return Datum::Bool(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "length", {t.element}, t.span,
      [t](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Span v, ElementLength(GetElement(a[0]),
                                                   ctx.tx));
        return MakeSpan(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "start", {t.element}, t.chronon,
      [t](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Chronon v, ElementStart(GetElement(a[0]),
                                                     ctx.tx));
        return MakeChronon(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "end", {t.element}, t.chronon,
      [t](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Chronon v, ElementEnd(GetElement(a[0]),
                                                   ctx.tx));
        return MakeChronon(t, v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "first", {t.element}, t.period,
      [t](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(GroundedPeriod v,
                             ElementFirst(GetElement(a[0]), ctx.tx));
        return MakePeriod(t, Period::FromGrounded(v));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "last", {t.element}, t.period,
      [t](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(GroundedPeriod v,
                             ElementLast(GetElement(a[0]), ctx.tx));
        return MakePeriod(t, Period::FromGrounded(v));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "extent", {t.element}, t.period,
      [t](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(GroundedPeriod v,
                             ElementExtent(GetElement(a[0]), ctx.tx));
        return MakePeriod(t, Period::FromGrounded(v));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "num_periods", {t.element}, TypeId::kInt,
      [](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(GroundedElement e,
                             GetElement(a[0]).Ground(ctx.tx));
        return Datum::Int(static_cast<int64_t>(e.size()));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "is_empty", {t.element}, TypeId::kBool,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::Bool(GetElement(a[0]).IsEmpty());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "is_now_relative", {t.instant}, TypeId::kBool,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::Bool(GetInstant(a[0]).is_now_relative());
      })));
  // Instant-argument overloads: ground the instant, then test. These
  // exist so `contains(valid, 'NOW-7'::Instant)` works without an
  // explicit ::Chronon cast (Instant -> Chronon is explicit-only).
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "contains", {t.element, t.instant}, TypeId::kBool,
      [](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Chronon c, GetInstant(a[1]).Ground(ctx.tx));
        TIP_ASSIGN_OR_RETURN(bool v,
                             ElementContainsChronon(GetElement(a[0]), c,
                                                    ctx.tx));
        return Datum::Bool(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "contains", {t.period, t.instant}, TypeId::kBool,
      [](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(GroundedPeriod p,
                             GetPeriod(a[0]).Ground(ctx.tx));
        TIP_ASSIGN_OR_RETURN(Chronon c, GetInstant(a[1]).Ground(ctx.tx));
        return Datum::Bool(p.Contains(c));
      })));
  // expand(e, s): grow (or, negative s, shrink) every period by `s` on
  // both ends, dropping periods that invert; the result re-coalesces.
  // Useful for proximity queries ("within a week of ...").
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "expand", {t.element, t.span}, t.element,
      [t](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
        const Span& s = GetSpan(a[1]);
        TIP_ASSIGN_OR_RETURN(GroundedElement e,
                             GetElement(a[0]).Ground(ctx.tx));
        std::vector<GroundedPeriod> grown;
        grown.reserve(e.size());
        const bool growing = !s.IsNegative();
        for (const GroundedPeriod& p : e.periods()) {
          Result<Chronon> start = p.start().Subtract(s);
          Result<Chronon> end = p.end().Add(s);
          if ((!start.ok() || !end.ok()) && !growing) {
            continue;  // shrunk past the calendar: nothing left
          }
          // Growth clamps at the calendar bounds rather than failing.
          Chronon lo = start.ok() ? *start : Chronon::Min();
          Chronon hi = end.ok() ? *end : Chronon::Max();
          if (lo <= hi) grown.push_back(*GroundedPeriod::Make(lo, hi));
        }
        return MakeElement(t, Element::FromGrounded(
                                  GroundedElement::FromPeriods(
                                      std::move(grown))));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "shift", {t.element, t.span}, t.element,
      [t](DatumRefs a, EvalContext&) -> Result<Datum> {
        const Span& s = GetSpan(a[1]);
        std::vector<Period> shifted;
        shifted.reserve(GetElement(a[0]).size());
        for (const Period& p : GetElement(a[0]).periods()) {
          TIP_ASSIGN_OR_RETURN(Instant start, p.start().Add(s));
          TIP_ASSIGN_OR_RETURN(Instant end, p.end().Add(s));
          TIP_ASSIGN_OR_RETURN(Period sp, Period::Make(start, end));
          shifted.push_back(sp);
        }
        return MakeElement(t, Element::FromPeriods(std::move(shifted)));
      })));
  return Status::OK();
}

}  // namespace

Status RegisterRoutines(engine::Database* db, const TipTypes& t) {
  engine::RoutineRegistry& reg = db->routines();
  TIP_RETURN_IF_ERROR(RegisterArithmetic(reg, t));
  TIP_RETURN_IF_ERROR(RegisterAllen(reg, t));
  TIP_RETURN_IF_ERROR(RegisterElementRoutines(reg, t));
  // The transaction time as a value — handy for tests and for queries
  // that want the statement's NOW explicitly.
  TIP_RETURN_IF_ERROR(reg.Register(Make(
      "transaction_time", {}, t.chronon,
      [t](DatumRefs, EvalContext& ctx) -> Result<Datum> {
        return MakeChronon(t, ctx.tx.now);
      })));
  return Status::OK();
}

}  // namespace internal
}  // namespace tip::datablade
