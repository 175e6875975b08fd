// Virtual-time types for the discrete-event simulation core.
//
// All simulated time is kept as integral nanoseconds so that event ordering
// is exact and runs are bit-reproducible. Helpers convert to/from the
// double-microsecond units used by the hardware cost model.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>

namespace gdrshmem::sim {

/// A span of virtual time, in nanoseconds. Negative durations are invalid
/// as event delays but are representable so arithmetic stays closed.
class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration ns(std::int64_t v) { return Duration{v}; }
  static constexpr Duration us(double v) {
    return Duration{static_cast<std::int64_t>(v * 1e3 + (v >= 0 ? 0.5 : -0.5))};
  }
  static constexpr Duration ms(double v) { return us(v * 1e3); }
  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t count_ns() const { return ns_; }
  constexpr double to_us() const { return static_cast<double>(ns_) * 1e-3; }
  constexpr double to_ms() const { return static_cast<double>(ns_) * 1e-6; }

  constexpr Duration operator+(Duration o) const { return Duration{ns_ + o.ns_}; }
  constexpr Duration operator-(Duration o) const { return Duration{ns_ - o.ns_}; }
  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration operator*(double k) const {
    // Round half away from zero, matching Duration::us — a scaled negative
    // duration must not creep toward zero.
    double v = static_cast<double>(ns_) * k;
    return Duration{static_cast<std::int64_t>(v + (v >= 0 ? 0.5 : -0.5))};
  }
  constexpr auto operator<=>(const Duration&) const = default;

 private:
  constexpr explicit Duration(std::int64_t v) : ns_{v} {}
  std::int64_t ns_ = 0;
};

/// An absolute point on the virtual timeline (nanoseconds since t=0).
class Time {
 public:
  constexpr Time() = default;
  static constexpr Time ns(std::int64_t v) { return Time{v}; }
  static constexpr Time zero() { return Time{0}; }
  /// The infinite deadline: later than every reachable instant. Deadline
  /// waits given never() schedule no wake event. Do not add to it.
  static constexpr Time never() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t count_ns() const { return ns_; }
  constexpr double to_us() const { return static_cast<double>(ns_) * 1e-3; }
  constexpr double to_ms() const { return static_cast<double>(ns_) * 1e-6; }

  constexpr Time operator+(Duration d) const { return Time{ns_ + d.count_ns()}; }
  constexpr Duration operator-(Time o) const { return Duration::ns(ns_ - o.ns_); }
  constexpr auto operator<=>(const Time&) const = default;

 private:
  constexpr explicit Time(std::int64_t v) : ns_{v} {}
  std::int64_t ns_ = 0;
};

constexpr Time max(Time a, Time b) { return a < b ? b : a; }
constexpr Duration max(Duration a, Duration b) { return a < b ? b : a; }

}  // namespace gdrshmem::sim
