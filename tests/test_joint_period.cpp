// Tests for joint period optimization on a fixed assignment: exact corner
// feasibility, the three objective modes, and agreement with grid search.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/joint_period.h"
#include "rt/partition.h"
#include "rt/task.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace rt = hydra::rt;

namespace {

/// Two security tasks sharing core 0 with one RT task; coupled constraints.
core::Instance coupled_instance() {
  core::Instance inst;
  inst.num_cores = 1;
  inst.rt_tasks = {rt::make_rt_task("r", 2.0, 10.0)};  // 20 % load
  inst.security_tasks = {rt::make_security_task("hi", 100.0, 500.0, 5000.0),
                         rt::make_security_task("lo", 100.0, 600.0, 6000.0)};
  return inst;
}

rt::Partition trivial_partition(const core::Instance& inst) {
  rt::Partition p;
  p.num_cores = inst.num_cores;
  p.core_of.assign(inst.rt_tasks.size(), 0);
  return p;
}

/// Seeded M-core instance: two RT tasks per core and `ns` security tasks
/// heavy enough that some assignments are corner-infeasible.
core::Instance random_instance(std::uint64_t seed, std::size_t m, std::size_t ns) {
  hydra::util::Xoshiro256 rng(seed);
  core::Instance inst;
  inst.num_cores = m;
  for (std::size_t i = 0; i < 2 * m; ++i) {
    const double period = rng.uniform(20.0, 200.0);
    inst.rt_tasks.push_back(
        rt::make_rt_task("r" + std::to_string(i), rng.uniform(0.05, 0.3) * period, period));
  }
  for (std::size_t i = 0; i < ns; ++i) {
    const double t_des = rng.uniform(500.0, 3000.0);
    inst.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.1, 0.45) * t_des, t_des,
        rng.uniform(1.5, 10.0) * t_des, rng.uniform(0.5, 2.0)));
  }
  return inst;
}

/// RT task i on core i mod M.
rt::Partition round_robin_partition(const core::Instance& inst) {
  rt::Partition p;
  p.num_cores = inst.num_cores;
  for (std::size_t i = 0; i < inst.rt_tasks.size(); ++i) p.core_of.push_back(i % inst.num_cores);
  return p;
}

}  // namespace

TEST(JointPeriod, EmptySecuritySetTriviallyFeasible) {
  core::Instance inst;
  inst.num_cores = 1;
  inst.rt_tasks = {rt::make_rt_task("r", 1.0, 10.0)};
  const auto r = core::optimize_joint_periods(inst, trivial_partition(inst), {});
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.periods.empty());
}

TEST(JointPeriod, InfeasibleAtCornerDetected) {
  core::Instance inst;
  inst.num_cores = 1;
  inst.rt_tasks = {rt::make_rt_task("r", 9.0, 10.0)};  // 90 % RT load
  inst.security_tasks = {rt::make_security_task("s", 500.0, 1000.0, 2000.0)};
  const auto r = core::optimize_joint_periods(inst, trivial_partition(inst), {0});
  EXPECT_FALSE(r.feasible);
}

TEST(JointPeriod, ResultSatisfiesConstraintsAllModes) {
  const auto inst = coupled_instance();
  const auto part = trivial_partition(inst);
  for (const auto mode : {core::JointObjective::kSumSurrogate, core::JointObjective::kLogUtility,
                          core::JointObjective::kSignomialScp}) {
    core::JointPeriodOptions opts;
    opts.objective = mode;
    const auto r = core::optimize_joint_periods(inst, part, {0, 0}, opts);
    ASSERT_TRUE(r.feasible);
    ASSERT_EQ(r.periods.size(), 2u);
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_GE(r.periods[s], inst.security_tasks[s].period_des - 1e-6);
      EXPECT_LE(r.periods[s], inst.security_tasks[s].period_max + 1e-6);
    }
    // Re-check Eq. (6) by hand for the low-priority task (index 1):
    // C + (1 + T1/10)·2 + (1 + T1/T0)·100 <= T1.
    const double t0 = r.periods[0], t1 = r.periods[1];
    const double demand = 100.0 + (1.0 + t1 / 10.0) * 2.0 + (1.0 + t1 / t0) * 100.0;
    EXPECT_LE(demand, t1 + 1e-4) << "mode " << static_cast<int>(mode);
  }
}

TEST(JointPeriod, ScpAtLeastAsGoodAsRigorousModes) {
  const auto inst = coupled_instance();
  const auto part = trivial_partition(inst);
  double scp_value = 0.0, surrogate_value = 0.0, log_value = 0.0;
  {
    core::JointPeriodOptions o;
    o.objective = core::JointObjective::kSignomialScp;
    scp_value = core::optimize_joint_periods(inst, part, {0, 0}, o).cumulative_tightness;
  }
  {
    core::JointPeriodOptions o;
    o.objective = core::JointObjective::kSumSurrogate;
    surrogate_value = core::optimize_joint_periods(inst, part, {0, 0}, o).cumulative_tightness;
  }
  {
    core::JointPeriodOptions o;
    o.objective = core::JointObjective::kLogUtility;
    log_value = core::optimize_joint_periods(inst, part, {0, 0}, o).cumulative_tightness;
  }
  // SCP directly maximizes Σ ω·η and is seeded with the surrogate solution.
  EXPECT_GE(scp_value, surrogate_value - 1e-6);
  EXPECT_GE(scp_value, log_value - 1e-6);
}

TEST(JointPeriod, MatchesGridSearchOnCoupledPair) {
  const auto inst = coupled_instance();
  const auto part = trivial_partition(inst);
  core::JointPeriodOptions opts;
  opts.objective = core::JointObjective::kSignomialScp;
  const auto r = core::optimize_joint_periods(inst, part, {0, 0}, opts);
  ASSERT_TRUE(r.feasible);

  // Dense grid over (T0, T1).
  const auto& s0 = inst.security_tasks[0];
  const auto& s1 = inst.security_tasks[1];
  double best = 0.0;
  const int steps = 300;
  for (int i = 0; i <= steps; ++i) {
    const double t0 = s0.period_des + (s0.period_max - s0.period_des) * i / steps;
    // Constraint for s0 (hp): 100 + (1 + t0/10)·2 <= t0  →  0.8·t0 >= 102.
    if (100.0 + (1.0 + t0 / 10.0) * 2.0 > t0 + 1e-9) continue;
    for (int j = 0; j <= steps; ++j) {
      const double t1 = s1.period_des + (s1.period_max - s1.period_des) * j / steps;
      const double demand = 100.0 + (1.0 + t1 / 10.0) * 2.0 + (1.0 + t1 / t0) * 100.0;
      if (demand > t1 + 1e-9) continue;
      best = std::max(best, s0.weight * s0.period_des / t0 + s1.weight * s1.period_des / t1);
    }
  }
  EXPECT_GE(r.cumulative_tightness, best - 5e-3);
}

TEST(JointPeriod, SeparateCoresDecouple) {
  // On different cores with no RT tasks, each period collapses to Tdes.
  core::Instance inst;
  inst.num_cores = 2;
  inst.security_tasks = {rt::make_security_task("a", 50.0, 500.0, 5000.0),
                         rt::make_security_task("b", 50.0, 700.0, 7000.0)};
  rt::Partition part;
  part.num_cores = 2;
  const auto r = core::optimize_joint_periods(inst, part, {0, 1});
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.periods[0], 500.0, 1.0);
  EXPECT_NEAR(r.periods[1], 700.0, 1.0);
  EXPECT_NEAR(r.cumulative_tightness, 2.0, 1e-3);
}

TEST(JointPeriod, WeightsSteerTheTradeoff) {
  // Same pair, but now the LOW-priority task carries a huge weight: the
  // optimizer should sacrifice the high-priority task's tightness.
  core::Instance inst = coupled_instance();
  inst.security_tasks[1].weight = 50.0;
  const auto part = trivial_partition(inst);
  core::JointPeriodOptions opts;
  opts.objective = core::JointObjective::kSignomialScp;
  const auto weighted = core::optimize_joint_periods(inst, part, {0, 0}, opts);

  core::Instance plain = coupled_instance();
  const auto unweighted = core::optimize_joint_periods(plain, part, {0, 0}, opts);
  ASSERT_TRUE(weighted.feasible);
  ASSERT_TRUE(unweighted.feasible);
  const double eta1_weighted = inst.security_tasks[1].period_des / weighted.periods[1];
  const double eta1_unweighted = plain.security_tasks[1].period_des / unweighted.periods[1];
  EXPECT_GE(eta1_weighted, eta1_unweighted - 1e-6);
}

TEST(JointPeriod, BlockingTermTightensTheProblem) {
  const auto inst = coupled_instance();
  const auto part = trivial_partition(inst);
  core::JointPeriodOptions plain;
  plain.objective = core::JointObjective::kSignomialScp;
  core::JointPeriodOptions blocked = plain;
  blocked.blocking = 50.0;
  const auto without = core::optimize_joint_periods(inst, part, {0, 0}, plain);
  const auto with = core::optimize_joint_periods(inst, part, {0, 0}, blocked);
  ASSERT_TRUE(without.feasible);
  ASSERT_TRUE(with.feasible);
  EXPECT_LE(with.cumulative_tightness, without.cumulative_tightness + 1e-9);
}

TEST(JointPeriod, HugeBlockingMakesInfeasible) {
  const auto inst = coupled_instance();
  const auto part = trivial_partition(inst);
  core::JointPeriodOptions opts;
  opts.blocking = 1e6;  // larger than any Tmax
  const auto r = core::optimize_joint_periods(inst, part, {0, 0}, opts);
  EXPECT_FALSE(r.feasible);
}

TEST(JointPeriodBound, InfeasibleExactlyWhenSolveIsAndNeverBelowTheOptimum) {
  // For every assignment of seeded instances the bound must agree with the
  // solve on feasibility, and bound the tightness the solve reaches under
  // every objective.
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (const std::size_t m : {2u, 3u}) {
    for (std::size_t ns = 1; ns <= 5; ++ns) {
      const std::uint64_t seed = 1000 * m + ns;
      const auto inst = random_instance(seed, m, ns);
      const auto part = round_robin_partition(inst);
      const double blocking = ns % 2 == 0 ? 3.0 : 0.0;
      std::size_t total = 1;
      for (std::size_t s = 0; s < ns; ++s) total *= m;
      std::vector<std::size_t> core_of(ns);
      for (std::size_t code = 0; code < total; ++code) {
        for (std::size_t s = 0, rem = code; s < ns; ++s, rem /= m) core_of[s] = rem % m;
        const auto bound = core::joint_tightness_bound(inst, part, core_of, blocking);
        for (const auto mode : {core::JointObjective::kSumSurrogate,
                                core::JointObjective::kLogUtility,
                                core::JointObjective::kSignomialScp}) {
          core::JointPeriodOptions opts;
          opts.objective = mode;
          opts.blocking = blocking;
          const auto r = core::optimize_joint_periods(inst, part, core_of, opts);
          ASSERT_EQ(bound.has_value(), r.feasible)
              << "seed " << seed << " code " << code << " mode " << static_cast<int>(mode);
          if (r.feasible) {
            EXPECT_LE(r.cumulative_tightness, *bound)
                << "seed " << seed << " code " << code << " mode " << static_cast<int>(mode);
          }
        }
        ++(bound ? feasible : infeasible);
      }
    }
  }
  // Both verdicts are exercised.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

TEST(JointPeriodBound, EmptySecuritySetBoundsAtZero) {
  core::Instance inst;
  inst.num_cores = 1;
  inst.rt_tasks = {rt::make_rt_task("r", 1.0, 10.0)};
  EXPECT_EQ(core::joint_tightness_bound(inst, trivial_partition(inst), {}), 0.0);
}

TEST(JointPeriod, AssignmentShapeChecked) {
  const auto inst = coupled_instance();
  const auto part = trivial_partition(inst);
  EXPECT_THROW(core::optimize_joint_periods(inst, part, {0}), std::invalid_argument);
  EXPECT_THROW(core::optimize_joint_periods(inst, part, {0, 7}), std::invalid_argument);
  EXPECT_THROW(core::joint_tightness_bound(inst, part, {0}), std::invalid_argument);
  EXPECT_THROW(core::joint_tightness_bound(inst, part, {0, 7}), std::invalid_argument);
}
