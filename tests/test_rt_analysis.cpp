// Tests for DBF (paper Eq. 1) and exact response-time analysis, including
// hand-worked textbook examples and property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "oracles/rt_bounds.h"
#include "rt/analysis.h"
#include "rt/task.h"
#include "util/rng.h"

namespace oracle = hydra::oracle;
namespace rt = hydra::rt;

TEST(Dbf, StepsAtDeadlinePoints) {
  const auto t = rt::make_rt_task("a", 2.0, 10.0);  // D = 10
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 9.999), 0.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 19.999), 2.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 20.0), 4.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 100.0), 20.0);
}

TEST(Dbf, ConstrainedDeadlineShiftsSteps) {
  const rt::RtTask t{"a", 2.0, 10.0, 6.0};
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 6.0), 2.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 16.0), 4.0);
}

TEST(Dbf, IsMonotoneNonDecreasing) {
  const auto t = rt::make_rt_task("a", 3.0, 7.0);
  double prev = 0.0;
  for (double x = 0.0; x < 100.0; x += 0.5) {
    const double v = oracle::dbf(t, x);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(NecessaryCondition, PassesLightLoad) {
  const std::vector<rt::RtTask> tasks{rt::make_rt_task("a", 1.0, 10.0),
                                      rt::make_rt_task("b", 2.0, 20.0)};
  EXPECT_TRUE(rt::dbf_necessary_condition(tasks, 1));
  EXPECT_TRUE(rt::dbf_necessary_condition(tasks, 4));
}

TEST(NecessaryCondition, FailsWhenUtilizationExceedsCores) {
  const std::vector<rt::RtTask> tasks{rt::make_rt_task("a", 9.0, 10.0),
                                      rt::make_rt_task("b", 9.0, 10.0),
                                      rt::make_rt_task("c", 9.0, 10.0)};
  EXPECT_FALSE(rt::dbf_necessary_condition(tasks, 2));  // U = 2.7 > 2
  EXPECT_TRUE(rt::dbf_necessary_condition(tasks, 3));
}

TEST(NecessaryCondition, EmptySetTriviallyHolds) {
  EXPECT_TRUE(rt::dbf_necessary_condition({}, 1));
}

TEST(NecessaryCondition, ChecksTheDeadlinePointNearestTheHorizon) {
  // Regression for the `t += period` checkpoint drift: 0.1 is not
  // representable in binary, and 10^5 repeated additions overshoot the exact
  // k-th deadline point D + k·T by ~1.9e-8 — enough to push task a's LAST
  // checkpoint past a horizon that the multiplication form lands on exactly,
  // silently skipping the one demand point that violates Eq. (1).
  const double period = 0.1;
  const std::uint64_t k = 99999;
  const rt::RtTask a{"a", 0.09, period, period};
  const double t_star = a.deadline + static_cast<double>(k) * a.period;

  double t_acc = a.deadline;
  for (std::uint64_t j = 0; j < k; ++j) t_acc += a.period;
  ASSERT_GT(t_acc, t_star);  // the drift regime this test exists for

  // Task b places the FIRST violation exactly at a's t* checkpoint: at b's
  // own (exact, drift-free) deadline t* − 0.05 the demand is 0.02 under
  // capacity, one more job of a at t* puts it 0.02 over — margins far wider
  // than kTimeEpsilon and any accumulation noise.
  const rt::RtTask b{"b", 0.1 * t_star + 0.02, 1e9, t_star - 0.05};
  EXPECT_FALSE(rt::dbf_necessary_condition({a, b}, 1, t_star));
  // A horizon short of t* never sees the violation: the verdict flips on
  // exactly that last checkpoint.
  EXPECT_TRUE(rt::dbf_necessary_condition({a, b}, 1, t_star - 0.01));
}

TEST(NecessaryCondition, MatchesBruteForceOnRandomTaskSets) {
  // The event-sweep implementation must agree with the definitional check:
  // Σ dbf(τ, t) ≤ M·t evaluated at every multiplication-form deadline point.
  hydra::util::Xoshiro256 rng(424242);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<rt::RtTask> tasks;
    const int n = 1 + static_cast<int>(rng.uniform(0.0, 4.0));
    for (int i = 0; i < n; ++i) {
      const double p = rng.uniform(0.05, 12.0);
      const double d = rng.uniform(0.5, 1.0) * p;  // constrained deadlines too
      const double c = rng.uniform(0.1, 0.9) * d;
      tasks.push_back(rt::RtTask{"t" + std::to_string(i), c, p, d});
    }
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform(0.0, 2.0));

    double h = 0.0;
    for (const auto& task : tasks) h = std::max(h, 2.0 * (task.deadline + task.period));
    bool reference = true;
    double total_util = 0.0;
    for (const auto& task : tasks) total_util += task.utilization();
    if (total_util > static_cast<double>(m) + 1e-6) reference = false;
    for (const auto& task : tasks) {
      if (!reference) break;
      for (std::uint64_t j = 0;; ++j) {
        const double t = task.deadline + static_cast<double>(j) * task.period;
        if (t > h) break;
        double demand = 0.0;
        for (const auto& other : tasks) demand += oracle::dbf(other, t);
        if (demand > static_cast<double>(m) * t + 1e-6) {
          reference = false;
          break;
        }
      }
    }
    EXPECT_EQ(rt::dbf_necessary_condition(tasks, m), reference) << "rep " << rep;
  }
}

TEST(ResponseTime, NoInterferenceEqualsWcet) {
  const auto t = rt::make_rt_task("a", 3.0, 10.0);
  const auto r = rt::response_time(t, {});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 3.0);
}

TEST(ResponseTime, ClassicTextbookExample) {
  // Liu & Layland style: τ1 = (1, 4), τ2 = (2, 6), τ3 = (3, 12) — RM.
  // R1 = 1. R2 = 2 + ceil(R2/4)·1 → 3. R3 = 3 + ceil(R3/4)·1 + ceil(R3/6)·2:
  //   R = 3 → 3+1+2 = 6 → 3+2+2 = 7 → 3+2+4 = 9 → 3+3+4 = 10 → 3+3+4 = 10. ✓
  const auto t1 = rt::make_rt_task("t1", 1.0, 4.0);
  const auto t2 = rt::make_rt_task("t2", 2.0, 6.0);
  const auto t3 = rt::make_rt_task("t3", 3.0, 12.0);
  EXPECT_DOUBLE_EQ(*rt::response_time(t2, {t1}), 3.0);
  const auto r3 = rt::response_time(t3, {t1, t2});
  ASSERT_TRUE(r3.has_value());
  EXPECT_DOUBLE_EQ(*r3, 10.0);
}

TEST(ResponseTime, UnschedulableReturnsNullopt) {
  const auto hp = rt::make_rt_task("hp", 5.0, 10.0);
  const auto lo = rt::make_rt_task("lo", 6.0, 10.0);  // 0.5 + 0.6 > 1
  EXPECT_FALSE(rt::response_time(lo, {hp}).has_value());
}

TEST(ResponseTime, ExactlyFullUtilizationBoundary) {
  // τ1 = (5, 10), τ2 = (5, 10): U = 1.0; R2 would never converge below D.
  const auto hp = rt::make_rt_task("hp", 5.0, 10.0);
  const auto lo = rt::make_rt_task("lo", 5.0, 10.0);
  const auto r = rt::response_time(lo, {hp});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 10.0);  // completes exactly at the deadline
}

TEST(CoreSchedulable, AcceptsAndRejects) {
  EXPECT_TRUE(rt::core_schedulable_rm({rt::make_rt_task("a", 1.0, 4.0),
                                       rt::make_rt_task("b", 2.0, 6.0),
                                       rt::make_rt_task("c", 3.0, 12.0)}));
  EXPECT_FALSE(rt::core_schedulable_rm({rt::make_rt_task("a", 5.0, 10.0),
                                        rt::make_rt_task("b", 5.1, 10.0)}));
  EXPECT_TRUE(rt::core_schedulable_rm({}));
}

TEST(LiuLayland, KnownValues) {
  EXPECT_DOUBLE_EQ(oracle::liu_layland_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(oracle::liu_layland_bound(1), 1.0);
  EXPECT_NEAR(oracle::liu_layland_bound(2), 0.8284, 1e-4);
  EXPECT_NEAR(oracle::liu_layland_bound(3), 0.7798, 1e-4);
  // Limit: ln 2 ≈ 0.6931.
  EXPECT_NEAR(oracle::liu_layland_bound(1000), std::log(2.0), 1e-3);
}

TEST(LiuLayland, SufficiencyAgreesWithExactRta) {
  // Any random set below the LL bound must pass exact RTA (sufficiency).
  hydra::util::Xoshiro256 rng(2024);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    std::vector<rt::RtTask> tasks;
    double budget = oracle::liu_layland_bound(n) * 0.98;
    for (std::size_t i = 0; i < n; ++i) {
      const double u = budget / static_cast<double>(n);
      const double period = rng.uniform(5.0, 500.0);
      tasks.push_back(rt::make_rt_task("t" + std::to_string(i), u * period, period));
    }
    EXPECT_TRUE(rt::core_schedulable_rm(tasks));
  }
}

TEST(ResponseTime, MonotoneInInterferenceSweep) {
  // Adding interferers can only increase the response time.
  const auto task = rt::make_rt_task("x", 2.0, 50.0);
  std::vector<rt::RtTask> hp;
  double prev = 0.0;
  for (int i = 0; i < 5; ++i) {
    const auto r = rt::response_time(task, hp);
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(*r, prev);
    prev = *r;
    hp.push_back(rt::make_rt_task("hp" + std::to_string(i), 1.0, 10.0 + i));
  }
}

TEST(HyperbolicBound, DominatesLiuLayland) {
  // Any set passing LL also passes the hyperbolic bound (strict dominance).
  hydra::util::Xoshiro256 rng(606);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    std::vector<rt::RtTask> tasks;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double period = rng.uniform(5.0, 500.0);
      const double u = rng.uniform(0.01, 0.3);
      total += u;
      tasks.push_back(rt::make_rt_task("t" + std::to_string(i), u * period, period));
    }
    if (total <= oracle::liu_layland_bound(n)) {
      EXPECT_TRUE(oracle::hyperbolic_bound_holds(tasks));
    }
    if (oracle::hyperbolic_bound_holds(tasks)) {
      EXPECT_TRUE(rt::core_schedulable_rm(tasks));  // sufficiency
    }
  }
}

TEST(HyperbolicBound, KnownCases) {
  // Two tasks at u = 0.41 each: (1.41)² = 1.9881 <= 2 → holds.
  std::vector<rt::RtTask> ok{rt::make_rt_task("a", 4.1, 10.0),
                             rt::make_rt_task("b", 8.2, 20.0)};
  EXPECT_TRUE(oracle::hyperbolic_bound_holds(ok));
  // Two at 0.45: (1.45)² = 2.1025 > 2 → fails (though RM may still work).
  std::vector<rt::RtTask> no{rt::make_rt_task("a", 4.5, 10.0),
                             rt::make_rt_task("b", 9.0, 20.0)};
  EXPECT_FALSE(oracle::hyperbolic_bound_holds(no));
}

TEST(SecurityResponseTime, HandWorkedExample) {
  // Security task C = 3 below RT (2, 10) and hp security (1, 20):
  // R = 3 + ceil(R/10)·2 + ceil(R/20)·1 → R = 3+2+1 = 6 → 6 ✓.
  const auto task = rt::make_security_task("s", 3.0, 50.0, 500.0);
  const auto r = rt::security_response_time(task, 500.0, {rt::make_rt_task("r", 2.0, 10.0)},
                                            {{1.0, 20.0}});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 6.0);
}

TEST(SecurityResponseTime, DeadlineExceededReturnsNullopt) {
  const auto task = rt::make_security_task("s", 3.0, 50.0, 500.0);
  // RT load 0.9: R = 3 + ceil(R/10)·9 → grows past any small deadline.
  EXPECT_FALSE(
      rt::security_response_time(task, 20.0, {rt::make_rt_task("r", 9.0, 10.0)}, {}).has_value());
}

// Property: the paper's linear Eq. (5) bound is conservative with respect to
// exact RTA — whenever the bound admits a period, exact RTA admits it too,
// and the exact response never exceeds the bound's implied demand.
class BoundVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundVsExact, LinearBoundIsConservative) {
  hydra::util::Xoshiro256 rng(GetParam());
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<rt::RtTask> rts;
    const int nr = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < nr; ++i) {
      const double period = rng.uniform(10.0, 300.0);
      rts.push_back(rt::make_rt_task("r" + std::to_string(i),
                                     rng.uniform(0.05, 0.2) * period, period));
    }
    std::vector<rt::PlacedSecurityTask> hp;
    const int nh = static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < nh; ++i) {
      const double period = rng.uniform(500.0, 3000.0);
      hp.push_back({rng.uniform(0.05, 0.25) * period, period});
    }
    const double t_des = rng.uniform(500.0, 2000.0);
    const auto task =
        rt::make_security_task("s", rng.uniform(0.05, 0.4) * t_des, t_des, 10.0 * t_des);

    const auto bound = rt::interference_bound(rts, hp);
    for (double period = t_des; period <= 10.0 * t_des; period *= 1.7) {
      if (rt::security_schedulable(task, period, bound)) {
        const auto exact = rt::security_response_time(task, period, rts, hp);
        ASSERT_TRUE(exact.has_value())
            << "linear bound admits period " << period << " but exact RTA rejects it";
        EXPECT_LE(*exact, task.wcet + bound.eval(period) + 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundVsExact, ::testing::Values(71, 72, 73, 74, 75, 76));

// Property sweep: response time computed by RTA satisfies its own fixed-point
// equation R = C + Σ ceil(R/T)·C.
class RtaFixedPoint : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtaFixedPoint, FixedPointHolds) {
  hydra::util::Xoshiro256 rng(GetParam());
  std::vector<rt::RtTask> hp;
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  double util = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double period = rng.uniform(10.0, 100.0);
    const double u = rng.uniform(0.02, 0.15);
    util += u;
    hp.push_back(rt::make_rt_task("hp" + std::to_string(i), u * period, period));
  }
  if (util >= 0.85) return;  // keep the low-priority task feasible
  const double period = rng.uniform(100.0, 1000.0);
  const auto task = rt::make_rt_task("x", 0.1 * period, period);
  const auto r = rt::response_time(task, hp);
  ASSERT_TRUE(r.has_value());
  double expected = task.wcet;
  for (const auto& h : hp) {
    expected += std::ceil(*r / h.period - 1e-9) * h.wcet;
  }
  EXPECT_NEAR(*r, expected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtaFixedPoint,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));
