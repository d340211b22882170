#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/element.h"
#include "core/element_reference.h"

namespace tip {
namespace {

// Randomized differential testing: the linear-merge Element algebra
// must agree with the chronon-set reference implementation on every
// operation, and satisfy the usual algebraic laws. Small universes
// ([0, 60)) keep the exploded sets cheap while exercising every overlap
// configuration.

GroundedElement RandomSmallElement(Rng* rng) {
  const int64_t n = rng->Uniform(0, 5);
  std::vector<GroundedPeriod> periods;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t s = rng->Uniform(0, 50);
    const int64_t e = s + rng->Uniform(0, 12);
    periods.push_back(*GroundedPeriod::Make(*Chronon::FromSeconds(s),
                                            *Chronon::FromSeconds(e)));
  }
  return GroundedElement::FromPeriods(std::move(periods));
}

class ElementPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ElementPropertyTest, MatchesSetSemantics) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    GroundedElement a = RandomSmallElement(&rng);
    GroundedElement b = RandomSmallElement(&rng);
    EXPECT_EQ(GroundedElement::Union(a, b), reference::SetUnion(a, b));
    EXPECT_EQ(GroundedElement::Intersect(a, b),
              reference::SetIntersect(a, b));
    EXPECT_EQ(GroundedElement::Difference(a, b),
              reference::SetDifference(a, b));
    EXPECT_EQ(a.Overlaps(b), reference::SetOverlaps(a, b));
    EXPECT_EQ(a.Contains(b), reference::SetContains(a, b));
  }
}

TEST_P(ElementPropertyTest, MatchesQuadraticPeriodAlgebra) {
  Rng rng(GetParam() ^ 0xABCDEF);
  for (int iter = 0; iter < 200; ++iter) {
    GroundedElement a = RandomSmallElement(&rng);
    GroundedElement b = RandomSmallElement(&rng);
    EXPECT_EQ(GroundedElement::Union(a, b),
              reference::QuadraticUnion(a, b));
    EXPECT_EQ(GroundedElement::Intersect(a, b),
              reference::QuadraticIntersect(a, b));
    EXPECT_EQ(a.Overlaps(b), reference::QuadraticOverlaps(a, b));
  }
}

TEST_P(ElementPropertyTest, AlgebraicLaws) {
  Rng rng(GetParam() ^ 0x5EED);
  for (int iter = 0; iter < 200; ++iter) {
    GroundedElement a = RandomSmallElement(&rng);
    GroundedElement b = RandomSmallElement(&rng);
    GroundedElement c = RandomSmallElement(&rng);

    // Commutativity.
    EXPECT_EQ(GroundedElement::Union(a, b), GroundedElement::Union(b, a));
    EXPECT_EQ(GroundedElement::Intersect(a, b),
              GroundedElement::Intersect(b, a));
    // Associativity.
    EXPECT_EQ(
        GroundedElement::Union(GroundedElement::Union(a, b), c),
        GroundedElement::Union(a, GroundedElement::Union(b, c)));
    EXPECT_EQ(
        GroundedElement::Intersect(GroundedElement::Intersect(a, b), c),
        GroundedElement::Intersect(a, GroundedElement::Intersect(b, c)));
    // Idempotence / identity / annihilation.
    EXPECT_EQ(GroundedElement::Union(a, a), a);
    EXPECT_EQ(GroundedElement::Intersect(a, a), a);
    EXPECT_EQ(GroundedElement::Union(a, GroundedElement()), a);
    EXPECT_TRUE(
        GroundedElement::Intersect(a, GroundedElement()).IsEmpty());
    // Difference identities: (a \ b) ∪ (a ∩ b) == a, disjointly.
    GroundedElement diff = GroundedElement::Difference(a, b);
    GroundedElement inter = GroundedElement::Intersect(a, b);
    EXPECT_EQ(GroundedElement::Union(diff, inter), a);
    EXPECT_FALSE(diff.Overlaps(inter));
    EXPECT_FALSE(diff.Overlaps(b));
    // Absorption: a ∩ (a ∪ b) == a; a ∪ (a ∩ b) == a.
    EXPECT_EQ(GroundedElement::Intersect(a, GroundedElement::Union(a, b)),
              a);
    EXPECT_EQ(GroundedElement::Union(a, GroundedElement::Intersect(a, b)),
              a);
    // Duration is modular: |a| + |b| == |a ∪ b| + |a ∩ b|.
    EXPECT_EQ(a.TotalDuration().seconds() + b.TotalDuration().seconds(),
              GroundedElement::Union(a, b).TotalDuration().seconds() +
                  inter.TotalDuration().seconds());
    // Containment is consistent with union/intersection.
    EXPECT_TRUE(GroundedElement::Union(a, b).Contains(a));
    EXPECT_TRUE(a.Contains(inter));
  }
}

TEST_P(ElementPropertyTest, CanonicalFormInvariant) {
  Rng rng(GetParam() ^ 0xCAFE);
  for (int iter = 0; iter < 300; ++iter) {
    GroundedElement a = RandomSmallElement(&rng);
    GroundedElement b = RandomSmallElement(&rng);
    for (const GroundedElement* e :
         {&a, &b}) {
      for (size_t i = 1; i < e->periods().size(); ++i) {
        // Sorted, disjoint, non-adjacent.
        EXPECT_LT(e->periods()[i - 1].end().seconds() + 1,
                  e->periods()[i].start().seconds());
      }
    }
    for (GroundedElement e : {GroundedElement::Union(a, b),
                              GroundedElement::Intersect(a, b),
                              GroundedElement::Difference(a, b)}) {
      for (size_t i = 1; i < e.periods().size(); ++i) {
        EXPECT_LT(e.periods()[i - 1].end().seconds() + 1,
                  e.periods()[i].start().seconds());
      }
    }
  }
}

// An Element mixing the three kinds of stored period: absolute ones;
// NOW-relative ones, some of which ground inverted under an early NOW
// and drop out; and (rarely) an inverted absolute period, which only the
// unchecked Period constructor can build and which FromPeriods stores
// verbatim, leaving the Element non-canonical and its grounding an
// error. Half the Elements are all-absolute, so every pairing of the
// absolute and grounded paths occurs.
Element RandomMixedElement(Rng* rng) {
  auto at = [](int64_t s) {
    return Instant::Absolute(*Chronon::FromSeconds(s));
  };
  auto now = [](int64_t off) {
    return Instant::NowRelative(Span::FromSeconds(off));
  };
  const int64_t mode = rng->Uniform(0, 9);  // 0-4 absolute, 5-8 mixed, 9 bad
  const int64_t n = rng->Uniform(0, 4);
  std::vector<Period> periods;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t s = rng->Uniform(0, 50);
    const int64_t e = s + rng->Uniform(0, 12);
    if (mode < 5 || rng->Uniform(0, 2) == 0) {
      periods.emplace_back(at(s), at(e));
    } else if (rng->Uniform(0, 1) == 0) {
      periods.emplace_back(at(s), now(rng->Uniform(-15, 5)));
    } else {
      const int64_t off = rng->Uniform(-30, 10);
      periods.emplace_back(now(off), now(off + rng->Uniform(-2, 10)));
    }
  }
  if (mode == 9) {
    const int64_t s = rng->Uniform(5, 55);
    periods.emplace_back(at(s), at(s - rng->Uniform(1, 5)));
  }
  return Element::FromPeriods(std::move(periods));
}

template <typename T>
void ExpectSameResult(const Result<T>& got, const Result<T>& want,
                      const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (want.ok()) {
    EXPECT_TRUE(*got == *want) << what;
  } else {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
  }
}

// What a routine returns when it grounds every operand: the first
// grounding error, else `fn` over the grounded operands.
template <typename Fn>
auto Grounded(const Element& a, const TxContext& ctx, Fn fn)
    -> decltype(fn(GroundedElement())) {
  Result<GroundedElement> ga = a.Ground(ctx);
  if (!ga.ok()) return ga.status();
  return fn(*ga);
}

template <typename Fn>
auto Grounded(const Element& a, const Element& b, const TxContext& ctx,
              Fn fn) -> decltype(fn(GroundedElement(), GroundedElement())) {
  Result<GroundedElement> ga = a.Ground(ctx);
  if (!ga.ok()) return ga.status();
  Result<GroundedElement> gb = b.Ground(ctx);
  if (!gb.ok()) return gb.status();
  return fn(*ga, *gb);
}

Result<GroundedPeriod> EndpointOrError(const GroundedElement& g,
                                       const char* name, bool first,
                                       bool last) {
  if (g.IsEmpty()) {
    return Status::InvalidArgument(std::string(name) +
                                   "() of an empty Element");
  }
  return GroundedPeriod::Make(
      first ? g.periods().front().start() : g.periods().back().start(),
      last ? g.periods().back().end() : g.periods().front().end());
}

// The predicates and accessors read an all-absolute operand's stored
// periods in place and ground only NOW-relative ones; at every NOW they
// must answer exactly what grounding both operands answers, errors
// included, and agree with the chronon-set reference.
TEST_P(ElementPropertyTest, AbsolutePathsMatchGrounding) {
  Rng rng(GetParam() ^ 0xAB50);
  int absolute = 0, relative = 0, failing = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const Element a = RandomMixedElement(&rng);
    const Element b = RandomMixedElement(&rng);
    for (int64_t now_s : {0, 10, 35, 70}) {
      const TxContext ctx(*Chronon::FromSeconds(now_s));
      const std::string what = a.ToString() + " vs " + b.ToString() +
                               " at NOW=" + std::to_string(now_s);
      Result<GroundedElement> ga = a.Ground(ctx);
      if (a.is_absolute()) {
        ++absolute;
        ASSERT_TRUE(ga.ok()) << what;
        EXPECT_EQ(Element::FromGrounded(*ga), a) << what;
      } else {
        ++(ga.ok() ? relative : failing);
      }

      ExpectSameResult(ElementOverlaps(a, b, ctx),
                       Grounded(a, b, ctx,
                                [](const GroundedElement& x,
                                   const GroundedElement& y) -> Result<bool> {
                                  EXPECT_EQ(x.Overlaps(y),
                                            reference::SetOverlaps(x, y));
                                  return x.Overlaps(y);
                                }),
                       "overlaps " + what);
      ExpectSameResult(ElementContains(a, b, ctx),
                       Grounded(a, b, ctx,
                                [](const GroundedElement& x,
                                   const GroundedElement& y) -> Result<bool> {
                                  EXPECT_EQ(x.Contains(y),
                                            reference::SetContains(x, y));
                                  return x.Contains(y);
                                }),
                       "contains " + what);
      for (int64_t c : {0, 17, 33, 62}) {
        const Chronon chronon = *Chronon::FromSeconds(c);
        ExpectSameResult(
            ElementContainsChronon(a, chronon, ctx),
            Grounded(a, ctx,
                     [&](const GroundedElement& x) -> Result<bool> {
                       EXPECT_EQ(x.Contains(chronon),
                                 reference::ExplodeSeconds(x).count(c) == 1);
                       return x.Contains(chronon);
                     }),
            "contains " + std::to_string(c) + " " + what);
      }
      ExpectSameResult(
          ElementLength(a, ctx),
          Grounded(a, ctx,
                   [](const GroundedElement& x) -> Result<Span> {
                     EXPECT_EQ(x.TotalDuration().seconds(),
                               static_cast<int64_t>(
                                   reference::ExplodeSeconds(x).size()));
                     return x.TotalDuration();
                   }),
          "length " + what);
      ExpectSameResult(
          ElementStart(a, ctx),
          Grounded(a, ctx,
                   [](const GroundedElement& x) -> Result<Chronon> {
                     TIP_ASSIGN_OR_RETURN(
                         GroundedPeriod p,
                         EndpointOrError(x, "start", true, false));
                     return p.start();
                   }),
          "start " + what);
      ExpectSameResult(
          ElementEnd(a, ctx),
          Grounded(a, ctx,
                   [](const GroundedElement& x) -> Result<Chronon> {
                     TIP_ASSIGN_OR_RETURN(
                         GroundedPeriod p,
                         EndpointOrError(x, "end", false, true));
                     return p.end();
                   }),
          "end " + what);
      ExpectSameResult(ElementFirst(a, ctx),
                       Grounded(a, ctx,
                                [](const GroundedElement& x) {
                                  return EndpointOrError(x, "first", true,
                                                         false);
                                }),
                       "first " + what);
      ExpectSameResult(ElementLast(a, ctx),
                       Grounded(a, ctx,
                                [](const GroundedElement& x) {
                                  return EndpointOrError(x, "last", false,
                                                         true);
                                }),
                       "last " + what);
      ExpectSameResult(ElementExtent(a, ctx),
                       Grounded(a, ctx,
                                [](const GroundedElement& x) {
                                  return EndpointOrError(x, "extent", true,
                                                         true);
                                }),
                       "extent " + what);
    }
  }
  // Every path was exercised: absolute operands, NOW-relative ones that
  // ground, and ones whose grounding fails.
  EXPECT_GT(absolute, 0);
  EXPECT_GT(relative, 0);
  EXPECT_GT(failing, 0);
}

// The normalization FromPeriods gives all-absolute input: ground every
// period, sort and coalesce, and convert back; nullopt for input with
// an inverted period, which is stored verbatim instead.
std::optional<Element> FullyNormalized(const std::vector<Period>& periods) {
  std::vector<GroundedPeriod> grounded;
  for (const Period& p : periods) {
    Result<GroundedPeriod> g = p.Ground(TxContext());
    if (!g.ok()) return std::nullopt;
    grounded.push_back(*g);
  }
  return Element::FromGrounded(
      GroundedElement::FromPeriods(std::move(grounded)));
}

// FromPeriods keeps canonical all-absolute input as it is and normalizes
// everything else; either way the Element must equal the full
// normalization. Inputs run in order with gaps from -3 s (overlapping)
// through 1 s (adjacent) to 6 s, some shuffled, some with an inverted
// period.
TEST_P(ElementPropertyTest, FromPeriodsMatchesFullNormalization) {
  Rng rng(GetParam() ^ 0xC0DE);
  auto at = [](int64_t s) {
    return Instant::Absolute(*Chronon::FromSeconds(s));
  };
  int kept = 0, normalized = 0, inverted = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<Period> periods;
    int64_t start = 20;
    for (int64_t n = rng.Uniform(0, 6); n > 0; --n) {
      const int64_t end = start + rng.Uniform(0, 8);
      periods.emplace_back(at(start), at(end));
      start = end + rng.Uniform(-3, 6);
    }
    if (periods.size() > 1 && rng.Uniform(0, 3) == 0) {
      std::swap(periods.front(), periods.back());
    }
    if (rng.Uniform(0, 7) == 0) {
      const int64_t s = rng.Uniform(5, 55);
      periods.insert(periods.begin() + rng.Uniform(
                                           0, static_cast<int64_t>(
                                                  periods.size())),
                     Period(at(s), at(s - rng.Uniform(1, 5))));
    }
    const Element got = Element::FromPeriods(periods);
    const std::optional<Element> want = FullyNormalized(periods);
    if (!want.has_value()) {
      ++inverted;
      EXPECT_TRUE(got.periods() == periods) << got.ToString();
      EXPECT_FALSE(got.is_absolute()) << got.ToString();
      continue;
    }
    ++(got.periods() == periods ? kept : normalized);
    EXPECT_TRUE(got == *want)
        << got.ToString() << " vs " << want->ToString();
    EXPECT_TRUE(got.is_absolute()) << got.ToString();
  }
  // Every path ran: input kept as is, input normalized, input inverted.
  EXPECT_GT(kept, 0);
  EXPECT_GT(normalized, 0);
  EXPECT_GT(inverted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElementPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace tip
