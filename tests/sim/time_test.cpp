// Virtual-time arithmetic: Duration scaling must round half away from zero
// for both signs, matching Duration::us — the regression here was
// `Duration * double` adding +0.5 unconditionally, which dragged scaled
// negative durations toward zero (ns(-3) * 0.5 came out as -1, not -2).
#include "sim/time.hpp"

#include <gtest/gtest.h>

namespace gdrshmem::sim {
namespace {

TEST(Duration, UsRoundsHalfAwayFromZero) {
  EXPECT_EQ(Duration::us(1.0005).count_ns(), 1001);
  EXPECT_EQ(Duration::us(-1.0005).count_ns(), -1001);
}

TEST(Duration, ScaleRoundsHalfAwayFromZero) {
  EXPECT_EQ((Duration::ns(3) * 0.5).count_ns(), 2);    // 1.5 -> 2
  EXPECT_EQ((Duration::ns(-3) * 0.5).count_ns(), -2);  // -1.5 -> -2 (was -1)
  EXPECT_EQ((Duration::ns(5) * -0.5).count_ns(), -3);  // -2.5 -> -3 (was -2)
  EXPECT_EQ((Duration::ns(-5) * 0.5).count_ns(), -3);
  EXPECT_EQ((Duration::ns(0) * 123.0).count_ns(), 0);
}

TEST(Duration, ScaleIsSignSymmetric) {
  for (std::int64_t ns : {1, 3, 7, 999, 123456789}) {
    for (double k : {0.1, 0.5, 1.5, 2.25, 1000.0}) {
      EXPECT_EQ((Duration::ns(-ns) * k).count_ns(),
                -(Duration::ns(ns) * k).count_ns())
          << "ns=" << ns << " k=" << k;
      EXPECT_EQ((Duration::ns(ns) * -k).count_ns(),
                (Duration::ns(-ns) * k).count_ns())
          << "ns=" << ns << " k=" << k;
    }
  }
}

TEST(Duration, ScaleMatchesUsConversion) {
  // Scaling a microsecond by k must agree with constructing k microseconds.
  for (double k : {0.0015, 2.7135, -0.0015, -2.7135}) {
    EXPECT_EQ((Duration::us(1) * k).count_ns(), Duration::us(k).count_ns())
        << "k=" << k;
  }
}

TEST(Time, NeverIsLaterThanEveryReachableInstant) {
  EXPECT_GT(Time::never(), Time::zero() + Duration::ms(1e12));
  EXPECT_EQ(max(Time::never(), Time::zero()), Time::never());
}

}  // namespace
}  // namespace gdrshmem::sim
