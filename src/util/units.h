// Time-unit conventions shared by the whole library.
//
// Analysis code (response-time analysis, optimization, allocators) works in
// continuous time: `double` milliseconds, matching the units the paper uses
// for task parameters.  The discrete-event simulator works in integer
// microsecond ticks (`SimTime`) so that 500-second schedules accumulate no
// floating-point drift.  This header provides the two vocabularies and the
// (checked) conversions between them.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "util/contracts.h"

namespace hydra::util {

/// Continuous time in milliseconds (the analysis domain unit).
using Millis = double;

/// Discrete simulator time in integer microseconds.
using SimTime = std::uint64_t;

inline constexpr SimTime kTicksPerMilli = 1000;  // 1 tick = 1 microsecond

/// Converts analysis-domain milliseconds to simulator ticks, rounding to the
/// nearest microsecond.  Negative or non-finite inputs are caller errors.
inline SimTime to_ticks(Millis ms) {
  HYDRA_REQUIRE(std::isfinite(ms) && ms >= 0.0, "time must be finite and non-negative");
  const double ticks = std::round(ms * static_cast<double>(kTicksPerMilli));
  HYDRA_REQUIRE(ticks <= static_cast<double>(std::numeric_limits<SimTime>::max()),
                "time too large for simulator clock");
  return static_cast<SimTime>(ticks);
}

/// Converts milliseconds to simulator ticks, rounding UP — for quantities
/// where rounding down would increase demand past what the analysis admitted
/// (e.g. a task period: a longer period only reduces demand).
inline SimTime to_ticks_ceil(Millis ms) {
  HYDRA_REQUIRE(std::isfinite(ms) && ms >= 0.0, "time must be finite and non-negative");
  const double ticks = std::ceil(ms * static_cast<double>(kTicksPerMilli));
  HYDRA_REQUIRE(ticks <= static_cast<double>(std::numeric_limits<SimTime>::max()),
                "time too large for simulator clock");
  return static_cast<SimTime>(ticks);
}

/// Converts simulator ticks back to milliseconds (exact for values below 2^53).
inline Millis to_millis(SimTime ticks) {
  return static_cast<Millis>(ticks) / static_cast<Millis>(kTicksPerMilli);
}

/// Tolerance used when comparing analysis-domain times that passed through
/// algebraic manipulation (periods, response times).  One nanosecond.
inline constexpr double kTimeEpsilon = 1e-6;

/// `a <= b` with the shared time tolerance.
inline bool leq_tol(double a, double b, double tol = kTimeEpsilon) { return a <= b + tol; }

/// Approximate equality with absolute + relative tolerance.
inline bool approx_equal(double a, double b, double abs_tol = 1e-9, double rel_tol = 1e-9) {
  const double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::fmax(std::fabs(a), std::fabs(b));
}

/// Bit-for-bit double equality, finer than both == and max_digits10 text:
/// 0.0 and -0.0 (equal under ==) and distinct NaN payloads count as
/// different inputs, so a memo hit never joins two inputs that differ.
inline bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace hydra::util
