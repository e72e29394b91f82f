// Simulated time as an integral millisecond count. Integer time keeps the
// event queue total order exact (no floating-point tie ambiguity); the
// paper's experiments span at most 400 simulated minutes = 2.4e7 ms, far
// inside 64-bit range.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>

#include "qsa/util/expects.hpp"

namespace qsa::sim {

class SimTime {
 public:
  constexpr SimTime() = default;

  [[nodiscard]] static constexpr SimTime millis(std::int64_t ms) noexcept {
    return SimTime(ms);
  }
  /// Truncates toward whole milliseconds. Precondition: `s` is finite and
  /// |s| * 1000 < 2^63, the range in which the conversion is defined.
  /// Front ends bound their time knobs well inside it (util::kMaxFlagMinutes).
  [[nodiscard]] static constexpr SimTime seconds(double s) noexcept {
    return from_double_millis(s * 1e3);
  }
  /// As seconds(): `m` finite and |m| * 60000 < 2^63.
  [[nodiscard]] static constexpr SimTime minutes(double m) noexcept {
    return from_double_millis(m * 60e3);
  }
  [[nodiscard]] static constexpr SimTime zero() noexcept { return SimTime(0); }
  /// A time later than any event the simulator will ever schedule.
  [[nodiscard]] static constexpr SimTime infinity() noexcept {
    return SimTime(INT64_MAX);
  }

  [[nodiscard]] constexpr std::int64_t as_millis() const noexcept { return ms_; }
  [[nodiscard]] constexpr double as_seconds() const noexcept { return static_cast<double>(ms_) / 1e3; }
  [[nodiscard]] constexpr double as_minutes() const noexcept { return static_cast<double>(ms_) / 60e3; }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  friend constexpr SimTime operator+(SimTime a, SimTime b) noexcept {
    return SimTime(a.ms_ + b.ms_);
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) noexcept {
    return SimTime(a.ms_ - b.ms_);
  }
  constexpr SimTime& operator+=(SimTime o) noexcept {
    ms_ += o.ms_;
    return *this;
  }

 private:
  constexpr explicit SimTime(std::int64_t ms) noexcept : ms_(ms) {}

  /// A NaN fails both comparisons, so it breaks the precondition too.
  [[nodiscard]] static constexpr SimTime from_double_millis(
      double ms) noexcept {
    QSA_EXPECTS(ms > -0x1p63 && ms < 0x1p63);
    return SimTime(static_cast<std::int64_t>(ms));
  }
  std::int64_t ms_ = 0;
};

/// The time `gap_min` >= 0 minutes after `now` if it is no later than
/// `until`, else nullopt: exactly `now + SimTime::minutes(gap_min) <=
/// until`, but decided before the conversion, so a gap of any size (a
/// Poisson process at a tiny rate draws huge ones) ends the process instead
/// of breaking minutes()' range precondition.
[[nodiscard]] inline std::optional<SimTime> within_horizon(
    SimTime now, double gap_min, SimTime until) noexcept {
  const double left_ms = static_cast<double>((until - now).as_millis());
  if (gap_min * 60e3 >= left_ms + 1) return std::nullopt;
  return now + SimTime::minutes(gap_min);
}

}  // namespace qsa::sim
