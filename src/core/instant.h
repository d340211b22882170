#ifndef TIP_CORE_INSTANT_H_
#define TIP_CORE_INSTANT_H_

#include <cassert>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/chronon.h"
#include "core/span.h"
#include "core/tx_context.h"

namespace tip {

/// An `Instant` is either an absolute Chronon or a NOW-relative time: an
/// offset of type Span from the special symbol NOW, whose interpretation
/// changes as time advances (`NOW-1` denoted "yesterday" in the paper).
///
/// NOW-relative instants are *grounded* against a TxContext before any
/// arithmetic or comparison; the outcome of comparing a Chronon with a
/// NOW-relative Instant may therefore change between transactions, which
/// is the behaviour the paper calls out explicitly.
class Instant {
 public:
  /// Defaults to the absolute epoch chronon.
  Instant() : now_relative_(false), value_(0) {}

  static Instant Absolute(Chronon c) { return Instant(false, c.seconds()); }
  static Instant NowRelative(Span offset) {
    return Instant(true, offset.seconds());
  }
  /// The bare symbol NOW.
  static Instant Now() { return NowRelative(Span::Zero()); }

  bool is_now_relative() const { return now_relative_; }
  bool is_absolute() const { return !now_relative_; }

  /// The absolute chronon. Precondition: is_absolute().
  Chronon chronon() const {
    assert(is_absolute());
    return Chronon(value_);  // stored from a valid Chronon
  }
  /// The offset from NOW. Precondition: is_now_relative().
  Span offset() const;

  /// Substitutes the transaction time for NOW. Fails when NOW+offset
  /// leaves the calendar range.
  Result<Chronon> Ground(const TxContext& ctx) const;

  /// Displaces this instant by a span, preserving NOW-relativity
  /// (`NOW-1` + `2` == `NOW+1`).
  Result<Instant> Add(const Span& span) const;
  Result<Instant> Subtract(const Span& span) const;

  /// Parses `NOW`, `NOW-7`, `NOW+1 12:00:00`, or any Chronon literal.
  static Result<Instant> Parse(std::string_view text);

  /// `NOW`, `NOW-7`, `1999-10-31`, ... (ungrounded form).
  std::string ToString() const;

  /// Structural equality: an absolute instant never equals a NOW-relative
  /// one, even if they ground to the same chronon today. Use
  /// `CompareInstants` for temporal comparison.
  friend bool operator==(const Instant&, const Instant&) = default;

 private:
  Instant(bool now_relative, int64_t value)
      : now_relative_(now_relative), value_(value) {}

  bool now_relative_;
  int64_t value_;  // chronon seconds, or offset seconds from NOW
};

/// Three-way temporal comparison under `ctx` (-1, 0, +1). Fails if either
/// instant grounds outside the calendar range.
Result<int> CompareInstants(const Instant& a, const Instant& b,
                            const TxContext& ctx);

}  // namespace tip

#endif  // TIP_CORE_INSTANT_H_
