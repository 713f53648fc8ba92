#ifndef DSPOT_KERNELS_CALENDAR_H_
#define DSPOT_KERNELS_CALENDAR_H_

#include <cstdint>
#include <optional>

namespace dspot {
namespace kernels {

/// Branch-free calendar arithmetic for event-log bucketing, modeled on
/// timeslide's days-to-components decomposition. Everything here is pure
/// integer arithmetic with no data-dependent branches (conditions reduce
/// to 0/1 arithmetic), so bucketing a billion-row log neither stalls the
/// branch predictor nor goes wrong for pre-epoch (negative) timestamps —
/// the historical bug this replaces was C++'s truncate-toward-zero
/// division mapping seconds -1..-86400 and 0..86399 into the SAME day
/// bucket 0.

/// Floor division: largest q with q*b <= a. Unlike `/` (which truncates
/// toward zero), FloorDiv(-1, 86400) == -1.  b must be non-zero.
constexpr int64_t FloorDiv(int64_t a, int64_t b) {
  const int64_t q = a / b;
  const int64_t r = a % b;
  return q - ((r != 0) & ((r < 0) != (b < 0)));
}

/// Floor modulus: a - FloorDiv(a, b) * b, always in [0, |b|) for b > 0.
constexpr int64_t FloorMod(int64_t a, int64_t b) {
  return a - FloorDiv(a, b) * b;
}

/// timestamp - origin, or nullopt when the timestamp precedes the origin.
/// Subtracts as uint64_t, so every pair of int64 stamps has its exact
/// distance (up to 2^64 - 1), where `timestamp - origin` would overflow:
/// INT64_MAX after an origin of -10 is 2^63 + 9 units on. Callers reject
/// a distance their tick type cannot hold.
constexpr std::optional<uint64_t> OffsetFromOrigin(int64_t timestamp,
                                                   int64_t origin) {
  if (timestamp < origin) return std::nullopt;
  return static_cast<uint64_t>(timestamp) - static_cast<uint64_t>(origin);
}

/// Civil (proleptic Gregorian) date components.
struct CivilDay {
  int64_t year = 1970;
  int32_t month = 1;  ///< 1..12
  int32_t day = 1;    ///< 1..31
  int32_t yday = 0;   ///< 0-based day of year, 0..365
};

/// Days since 1970-01-01 -> civil date (Howard Hinnant's civil_from_days,
/// era decomposition made branch-free with FloorDiv / 0-1 arithmetic).
/// Valid over +-5.8 million years; negative inputs (pre-epoch) decode
/// correctly: CivilFromDays(-1) == 1969-12-31.
CivilDay CivilFromDays(int64_t days_since_epoch);

/// Civil date -> days since 1970-01-01 (inverse of CivilFromDays).
int64_t DaysFromCivil(int64_t year, int32_t month, int32_t day);

/// Unix seconds -> days since epoch, floor semantics (second -1 is day -1).
constexpr int64_t DaysFromSeconds(int64_t seconds) {
  return FloorDiv(seconds, 86400);
}

/// Calendar bucket indices for Unix-seconds timestamps. All are floor
/// aligned, so consecutive buckets tile the timeline with no double-wide
/// bucket at the epoch.
///
/// Weeks start on Monday (ISO): day 0 (Thursday 1970-01-01) falls in week
/// 0, which begins Monday 1969-12-29 (day -3).
constexpr int64_t WeekIndexFromDays(int64_t days_since_epoch) {
  return FloorDiv(days_since_epoch + 3, 7);
}

/// Month index: (year - 1970) * 12 + (month - 1); January 1970 is 0,
/// December 1969 is -1.
int64_t MonthIndexFromDays(int64_t days_since_epoch);

/// Year index relative to nothing: the civil year itself (1970, 1969, …).
int64_t YearFromDays(int64_t days_since_epoch);

}  // namespace kernels
}  // namespace dspot

#endif  // DSPOT_KERNELS_CALENDAR_H_
