// Tests for the Eq. (5) interference bound and the Eq. (6) check.
#include <gtest/gtest.h>

#include "rt/interference.h"

namespace rt = hydra::rt;

TEST(Interference, EmptyCoreIsZero) {
  const auto b = rt::interference_bound({}, {});
  EXPECT_DOUBLE_EQ(b.const_part, 0.0);
  EXPECT_DOUBLE_EQ(b.util_part, 0.0);
  EXPECT_DOUBLE_EQ(b.eval(123.0), 0.0);
}

TEST(Interference, MatchesEquationFiveByHand) {
  // RT: (2, 10) and (3, 30); hp security: (1, 20).
  // I(Ts) = (1 + Ts/10)·2 + (1 + Ts/30)·3 + (1 + Ts/20)·1
  //       = 6 + Ts·(0.2 + 0.1 + 0.05) = 6 + 0.35·Ts.
  const std::vector<rt::RtTask> rts{rt::make_rt_task("a", 2.0, 10.0),
                                    rt::make_rt_task("b", 3.0, 30.0)};
  const std::vector<rt::PlacedSecurityTask> hp{{1.0, 20.0}};
  const auto b = rt::interference_bound(rts, hp);
  EXPECT_DOUBLE_EQ(b.const_part, 6.0);
  EXPECT_DOUBLE_EQ(b.util_part, 0.35);
  EXPECT_DOUBLE_EQ(b.eval(100.0), 41.0);
}

TEST(Interference, EvalIsAffineInPeriod) {
  const auto b = rt::interference_bound({rt::make_rt_task("a", 1.0, 4.0)}, {{2.0, 8.0}});
  const double at0 = b.const_part;
  EXPECT_DOUBLE_EQ(b.eval(0.0), at0);
  EXPECT_DOUBLE_EQ(b.eval(10.0) - b.eval(0.0), 10.0 * b.util_part);
  EXPECT_DOUBLE_EQ(b.eval(20.0) - b.eval(10.0), b.eval(10.0) - b.eval(0.0));
}

TEST(SecuritySchedulable, EquationSixBothSides) {
  const auto task = hydra::rt::make_security_task("s", 5.0, 50.0, 500.0);
  // Bound: I(Ts) = 10 + 0.5·Ts.  Need 5 + 10 + 0.5·Ts <= Ts → Ts >= 30.
  rt::InterferenceBound b;
  b.const_part = 10.0;
  b.util_part = 0.5;
  EXPECT_FALSE(rt::security_schedulable(task, 29.0, b));
  EXPECT_TRUE(rt::security_schedulable(task, 30.0, b));  // exactly tight
  EXPECT_TRUE(rt::security_schedulable(task, 100.0, b));
}

TEST(SecuritySchedulable, SaturatedCoreNeverSchedulable) {
  const auto task = hydra::rt::make_security_task("s", 1.0, 50.0, 5000.0);
  rt::InterferenceBound b;
  b.const_part = 0.5;
  b.util_part = 1.0;  // interferers consume the whole core asymptotically
  for (double period = 50.0; period <= 5000.0; period *= 2.0) {
    EXPECT_FALSE(rt::security_schedulable(task, period, b));
  }
}

TEST(Interference, AddInterfererAccumulates) {
  rt::InterferenceBound b;
  b.add_interferer(2.0, 10.0);
  b.add_interferer(3.0, 30.0);
  EXPECT_DOUBLE_EQ(b.const_part, 5.0);
  EXPECT_NEAR(b.util_part, 0.3, 1e-12);
  EXPECT_THROW(b.add_interferer(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(b.add_interferer(1.0, 0.0), std::invalid_argument);
}
