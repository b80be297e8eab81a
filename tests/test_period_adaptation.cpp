// Tests for the Eq. (7) subproblem: hand-worked closed-form cases, boundary
// behaviour, and a property sweep proving the paper's GP route
// (hydra::oracle::adapt_period_gp) agrees with the closed form on random
// instances.
#include <gtest/gtest.h>

#include "core/period_adaptation.h"
#include "oracles/period_gp.h"
#include "rt/interference.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace oracle = hydra::oracle;
namespace rt = hydra::rt;

namespace {

rt::InterferenceBound bound(double const_part, double util_part) {
  rt::InterferenceBound b;
  b.const_part = const_part;
  b.util_part = util_part;
  return b;
}

}  // namespace

TEST(MinFeasiblePeriod, ClosedFormula) {
  const auto task = rt::make_security_task("s", 5.0, 100.0, 1000.0);
  // (Cs + A)/(1 − B) = (5 + 10)/(1 − 0.5) = 30.
  const auto t = core::min_feasible_period(task, bound(10.0, 0.5));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 30.0);
}

TEST(MinFeasiblePeriod, SaturatedCoreNullopt) {
  const auto task = rt::make_security_task("s", 5.0, 100.0, 1000.0);
  EXPECT_FALSE(core::min_feasible_period(task, bound(1.0, 1.0)).has_value());
  EXPECT_FALSE(core::min_feasible_period(task, bound(1.0, 1.5)).has_value());
}

TEST(AdaptPeriod, IdleCoreGivesDesiredPeriod) {
  const auto task = rt::make_security_task("s", 5.0, 100.0, 1000.0);
  const auto r = core::adapt_period(task, bound(0.0, 0.0));
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.period, 100.0);  // η = 1
  EXPECT_DOUBLE_EQ(r.tightness, 1.0);
}

TEST(AdaptPeriod, InterferencePushesPeriodAboveDesired) {
  const auto task = rt::make_security_task("s", 5.0, 100.0, 1000.0);
  // Min feasible = (5 + 50)/(1 − 0.6) = 137.5 > Tdes.
  const auto r = core::adapt_period(task, bound(50.0, 0.6));
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.period, 137.5);
  EXPECT_DOUBLE_EQ(r.tightness, 100.0 / 137.5);
}

TEST(AdaptPeriod, InfeasibleWhenMinPeriodExceedsTmax) {
  const auto task = rt::make_security_task("s", 5.0, 100.0, 200.0);
  // Min feasible = (5 + 50)/(1 − 0.6) = 137.5 <= 200: feasible.
  EXPECT_TRUE(core::adapt_period(task, bound(50.0, 0.6)).feasible);
  // Min feasible = (5 + 100)/(1 − 0.6) = 262.5 > 200: infeasible.
  EXPECT_FALSE(core::adapt_period(task, bound(100.0, 0.6)).feasible);
}

TEST(AdaptPeriod, ExactlyAtTmaxBoundary) {
  // Choose A so that the minimum feasible period is exactly Tmax.
  const auto task = rt::make_security_task("s", 10.0, 100.0, 400.0);
  // (10 + A)/(1 − 0.5) = 400  →  A = 190.
  const auto r = core::adapt_period(task, bound(190.0, 0.5));
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.period, 400.0, 1e-9);
  EXPECT_NEAR(r.tightness, 0.25, 1e-12);
}

TEST(AdaptPeriod, SaturatedUtilizationInfeasible) {
  const auto task = rt::make_security_task("s", 1.0, 100.0, 10000.0);
  EXPECT_FALSE(core::adapt_period(task, bound(0.0, 1.0)).feasible);
}

TEST(AdaptPeriod, TightnessIsMaximal) {
  // No feasible period smaller than the returned one exists: probing slightly
  // below must violate Eq. (6) or the box.
  const auto task = rt::make_security_task("s", 4.0, 80.0, 800.0);
  const auto b = bound(30.0, 0.4);
  const auto r = core::adapt_period(task, b);
  ASSERT_TRUE(r.feasible);
  const double probe = r.period * (1.0 - 1e-6);
  const bool probe_ok =
      probe >= task.period_des && rt::security_schedulable(task, probe, b);
  if (probe_ok) {
    // Only possible when the box bound Tdes is what stops us.
    EXPECT_NEAR(r.period, task.period_des, 1e-9);
  }
}

TEST(AdaptPeriod, GpRouteMatchesHandCase) {
  const auto task = rt::make_security_task("s", 5.0, 100.0, 1000.0);
  const auto r = oracle::adapt_period_gp(task, bound(50.0, 0.6));
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.period, 137.5, 1e-3);
}

TEST(AdaptPeriod, GpRouteDetectsInfeasible) {
  const auto task = rt::make_security_task("s", 5.0, 100.0, 200.0);
  const auto r = oracle::adapt_period_gp(task, bound(100.0, 0.6));
  EXPECT_FALSE(r.feasible);
}

TEST(AdaptPeriodExact, MatchesResponseTimeDirectly) {
  const auto task = rt::make_security_task("s", 3.0, 50.0, 500.0);
  const std::vector<rt::RtTiming> rts{{2.0, 10.0, 10.0}};
  // Exact response is 6 (< Tdes), so the period clamps to Tdes.
  const auto r = core::adapt_period_exact(task, rts, {});
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.period, 50.0);
  EXPECT_DOUBLE_EQ(r.tightness, 1.0);
}

TEST(AdaptPeriodExact, NeverWorseThanLinearBound) {
  // The exact route admits whatever the conservative bound admits, with a
  // tighter (or equal) period.
  hydra::util::Xoshiro256 rng(515);
  for (int rep = 0; rep < 30; ++rep) {
    std::vector<rt::RtTiming> rts;
    const int nr = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < nr; ++i) {
      const double period = rng.uniform(10.0, 200.0);
      rts.push_back({rng.uniform(0.05, 0.25) * period, period, period});
    }
    const double t_des = rng.uniform(300.0, 2000.0);
    const auto task =
        rt::make_security_task("s", rng.uniform(0.1, 0.5) * t_des, t_des, 10.0 * t_des);

    const auto linear = core::adapt_period(task, rt::interference_bound(rts, {}));
    const auto exact = core::adapt_period_exact(task, rts, {});
    if (linear.feasible) {
      ASSERT_TRUE(exact.feasible);
      EXPECT_LE(exact.period, linear.period + 1e-6);
      EXPECT_GE(exact.tightness, linear.tightness - 1e-9);
    }
  }
}

TEST(AdaptPeriodExact, AdmitsInstancesTheBoundRejects) {
  // A case where the linear bound over-counts: a heavy RT task with a period
  // far beyond the candidate range inflates the bound's utilization term —
  // (50 + 60)/(1 − 0.06) ≈ 117 > Tmax = 115 — while exact RTA sees a single
  // preemption and fits comfortably (R = 110).
  const std::vector<rt::RtTiming> rts{{60.0, 1000.0, 1000.0}};
  const auto tight = rt::make_security_task("s", 50.0, 100.0, 115.0);
  const auto linear = core::adapt_period(tight, rt::interference_bound(rts, {}));
  const auto exact = core::adapt_period_exact(tight, rts, {});
  EXPECT_FALSE(linear.feasible);
  ASSERT_TRUE(exact.feasible);
  EXPECT_DOUBLE_EQ(exact.period, 110.0);
}

// Property sweep: on random instances, the GP solver and the closed form
// agree on feasibility and (when feasible) on the optimal period.
class ClosedFormVsGp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosedFormVsGp, Agree) {
  hydra::util::Xoshiro256 rng(GetParam());
  for (int rep = 0; rep < 25; ++rep) {
    const double t_des = rng.uniform(50.0, 3000.0);
    const double t_max = t_des * rng.uniform(1.5, 10.0);
    const double wcet = t_des * rng.uniform(0.01, 0.5);
    const auto task = rt::make_security_task("s", wcet, t_des, t_max);
    const auto b = bound(rng.uniform(0.0, 500.0), rng.uniform(0.0, 0.95));

    const auto cf = core::adapt_period(task, b);
    const auto gp = oracle::adapt_period_gp(task, b);

    ASSERT_EQ(cf.feasible, gp.feasible)
        << "feasibility disagrees: Tdes=" << t_des << " Tmax=" << t_max << " C=" << wcet
        << " A=" << b.const_part << " B=" << b.util_part;
    if (cf.feasible) {
      EXPECT_NEAR(cf.period, gp.period, cf.period * 1e-3);
      EXPECT_NEAR(cf.tightness, gp.tightness, 1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedFormVsGp, ::testing::Values(101, 202, 303, 404));
