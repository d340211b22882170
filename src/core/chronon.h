#ifndef TIP_CORE_CHRONON_H_
#define TIP_CORE_CHRONON_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace tip {

class Span;

/// A civil (proleptic Gregorian) date-time, seconds resolution.
/// Passive data carrier; validity is checked when converting to Chronon.
struct CivilTime {
  int32_t year = 1970;   // 1 .. 9999
  int32_t month = 1;     // 1 .. 12
  int32_t day = 1;       // 1 .. days-in-month
  int32_t hour = 0;      // 0 .. 23
  int32_t minute = 0;    // 0 .. 59
  int32_t second = 0;    // 0 .. 59

  friend bool operator==(const CivilTime&, const CivilTime&) = default;
};

/// A `Chronon` is TIP's indivisible point on the time line — the role the
/// built-in DATE type plays in SQL, but at second granularity and with a
/// calendar implemented from first principles (no libc/locale dependence;
/// Y2K-compliant by construction, as the paper quips).
///
/// Internally a Chronon is a signed second count relative to
/// 1970-01-01 00:00:00; the valid range is
/// [0001-01-01 00:00:00, 9999-12-31 23:59:59].
class Chronon {
 public:
  /// The epoch, 1970-01-01 00:00:00.
  Chronon() : seconds_(0) {}

  /// Smallest / largest representable Chronon.
  static Chronon Min();
  static Chronon Max();

  /// Constructs from a raw second count; rejects values outside the
  /// supported calendar range.
  static Result<Chronon> FromSeconds(int64_t seconds);

  /// Constructs from civil fields; rejects invalid dates (e.g. Feb 30).
  static Result<Chronon> FromCivil(const CivilTime& civil);

  /// Parses `YYYY-MM-DD[ HH:MM:SS]` (the paper's notation).
  static Result<Chronon> Parse(std::string_view text);

  /// Civil decomposition of this chronon.
  CivilTime ToCivil() const;

  /// Formats as `YYYY-MM-DD` when the time-of-day is midnight, otherwise
  /// `YYYY-MM-DD HH:MM:SS` — matching the paper's examples.
  std::string ToString() const;

  /// Raw second count relative to 1970-01-01 00:00:00.
  int64_t seconds() const { return seconds_; }

  /// Checked displacement by a Span; fails if the result leaves the
  /// calendar range.
  Result<Chronon> Add(const Span& span) const;
  Result<Chronon> Subtract(const Span& span) const;

  /// Distance between two chronons (`a - b`); always representable.
  Span Since(const Chronon& other) const;

  friend auto operator<=>(const Chronon&, const Chronon&) = default;

 private:
  // Instant stores a valid Chronon as its seconds and rebuilds it
  // without the range check FromSeconds repeats.
  friend class Instant;

  explicit Chronon(int64_t seconds) : seconds_(seconds) {}

  int64_t seconds_;
};

namespace internal {

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
/// Valid for any y/m/d with m in [1,12], d in [1,31].
int64_t DaysFromCivil(int32_t y, int32_t m, int32_t d);

/// Inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int32_t* y, int32_t* m, int32_t* d);

/// Number of days in `month` of `year` (Gregorian leap rules).
int32_t DaysInMonth(int32_t year, int32_t month);

/// True iff `year` is a Gregorian leap year.
bool IsLeapYear(int32_t year);

}  // namespace internal
}  // namespace tip

#endif  // TIP_CORE_CHRONON_H_
