#include "core/instant.h"

#include <cassert>

#include "common/string_util.h"

namespace tip {

Span Instant::offset() const {
  assert(is_now_relative());
  return Span::FromSeconds(value_);
}

Result<Chronon> Instant::Ground(const TxContext& ctx) const {
  if (!now_relative_) return chronon();
  return ctx.now.Add(Span::FromSeconds(value_));
}

Result<Instant> Instant::Add(const Span& span) const {
  if (now_relative_) {
    TIP_ASSIGN_OR_RETURN(Span shifted,
                         Span::FromSeconds(value_).Add(span));
    return Instant::NowRelative(shifted);
  }
  TIP_ASSIGN_OR_RETURN(Chronon shifted, chronon().Add(span));
  return Instant::Absolute(shifted);
}

Result<Instant> Instant::Subtract(const Span& span) const {
  return Add(span.Negate());
}

Result<Instant> Instant::Parse(std::string_view text) {
  std::string_view s = StripAsciiWhitespace(text);
  if (s.size() >= 3 && EqualsIgnoreCase(s.substr(0, 3), "NOW")) {
    std::string_view rest = StripAsciiWhitespace(s.substr(3));
    if (rest.empty()) return Instant::Now();
    if (rest[0] != '+' && rest[0] != '-') {
      return Status::ParseError("expected '+' or '-' after NOW in '" +
                                std::string(text) + "'");
    }
    bool negative = rest[0] == '-';
    std::string_view magnitude_text = StripAsciiWhitespace(rest.substr(1));
    TIP_ASSIGN_OR_RETURN(Span magnitude, Span::Parse(magnitude_text));
    if (magnitude.IsNegative()) {
      return Status::ParseError("double sign in NOW-relative Instant '" +
                                std::string(text) + "'");
    }
    return Instant::NowRelative(negative ? magnitude.Negate() : magnitude);
  }
  TIP_ASSIGN_OR_RETURN(Chronon c, Chronon::Parse(s));
  return Instant::Absolute(c);
}

std::string Instant::ToString() const {
  if (!now_relative_) return chronon().ToString();
  if (value_ == 0) return "NOW";
  Span magnitude = offset().Abs();
  return (value_ < 0 ? "NOW-" : "NOW+") + magnitude.ToString();
}

Result<int> CompareInstants(const Instant& a, const Instant& b,
                            const TxContext& ctx) {
  // Two NOW-relative instants compare by offset at any transaction time,
  // so no grounding (and no range failure) is needed.
  if (a.is_now_relative() && b.is_now_relative()) {
    Span lhs = a.offset();
    Span rhs = b.offset();
    return lhs < rhs ? -1 : (lhs == rhs ? 0 : 1);
  }
  TIP_ASSIGN_OR_RETURN(Chronon ga, a.Ground(ctx));
  TIP_ASSIGN_OR_RETURN(Chronon gb, b.Ground(ctx));
  return ga < gb ? -1 : (ga == gb ? 0 : 1);
}

}  // namespace tip
