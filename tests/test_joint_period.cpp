// Tests for joint period optimization on a fixed assignment: exact corner
// feasibility, SCP against the two GP surrogates of the paper's objective,
// and agreement with grid search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/joint_period.h"
#include "gen/synthetic.h"
#include "gp/solver_registry.h"
#include "rt/partition.h"
#include "rt/task.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace gp = hydra::gp;
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

/// The rigorous GP stand-ins for the paper's signomial objective (S5 in
/// docs/architecture.md): minimize Σ (ωs/Tdes_s)·Ts, or maximize
/// Σ ωs·log ηs by minimizing Π Ts^{ωs}.
enum class Surrogate { kSum, kLogUtility };

/// Cumulative tightness of `surrogate` solved on make_joint_period_gp, with
/// its point adopted the way optimize_joint_periods adopts the SCP point:
/// clamped into the period box, kept only if it re-validates, and never
/// below the Tmax corner.  nullopt when the corner is infeasible.
std::optional<double> surrogate_tightness(const core::Instance& inst, const rt::Partition& part,
                                          const std::vector<std::size_t>& core_of,
                                          Surrogate surrogate) {
  if (!core::joint_tightness_bound(inst, part, core_of)) return std::nullopt;
  const auto& sec = inst.security_tasks;
  const auto tightness = [&](const std::vector<double>& periods) {
    double sum = 0.0;
    for (std::size_t s = 0; s < sec.size(); ++s) {
      sum += sec[s].weight * sec[s].period_des / periods[s];
    }
    return sum;
  };
  std::vector<double> corner(sec.size());
  for (std::size_t s = 0; s < sec.size(); ++s) corner[s] = sec[s].period_max;
  const double fallback = tightness(corner);

  gp::GpProblem problem = core::make_joint_period_gp(inst, part, core_of);
  if (surrogate == Surrogate::kLogUtility) {
    gp::Monomial product = problem.monomial(1.0);
    for (std::size_t s = 0; s < sec.size(); ++s) product.with(s, sec[s].weight);
    problem.set_objective(gp::Posynomial(product));
  }
  const gp::SolveResult sr = gp::solve_with_backend(problem);
  if (!sr.ok()) return fallback;
  std::vector<double> periods(sec.size());
  for (std::size_t s = 0; s < sec.size(); ++s) {
    periods[s] = std::clamp(sr.x[s], sec[s].period_des, sec[s].period_max);
  }
  if (!problem.is_feasible(periods, 1e-7)) return fallback;
  return std::max(fallback, tightness(periods));
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

TEST(JointPeriod, ResultSatisfiesConstraints) {
  const auto inst = coupled_instance();
  const auto part = trivial_partition(inst);
  const auto r = core::optimize_joint_periods(inst, part, {0, 0});
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
  EXPECT_LE(demand, t1 + 1e-4);
}

TEST(JointPeriod, ScpAtLeastAsGoodAsRigorousSurrogates) {
  const auto inst = coupled_instance();
  const auto part = trivial_partition(inst);
  const double scp_value = core::optimize_joint_periods(inst, part, {0, 0}).cumulative_tightness;
  const auto surrogate_value = surrogate_tightness(inst, part, {0, 0}, Surrogate::kSum);
  const auto log_value = surrogate_tightness(inst, part, {0, 0}, Surrogate::kLogUtility);
  ASSERT_TRUE(surrogate_value.has_value());
  ASSERT_TRUE(log_value.has_value());
  // SCP directly maximizes Σ ω·η and is seeded with the surrogate solution.
  EXPECT_GE(scp_value, *surrogate_value - 1e-6);
  EXPECT_GE(scp_value, *log_value - 1e-6);
}

TEST(JointPeriod, ScpLeadsBothSurrogatesOnRandomAssignments) {
  // SCP against both GP surrogates on 60 seeded M = 2 draws, each on a
  // uniformly random assignment.  SCP optimizes the paper's literal
  // objective and must lead both GP surrogates on every instance, up to its
  // own stopping noise (the log-utility point lands within 1e-9 relative of
  // SCP's on most draws); on average the surrogates trail it only slightly.
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;
  config.max_sec_per_core = 3;
  hydra::util::Xoshiro256 rng(5);
  std::vector<double> scp;
  std::vector<double> sum;
  std::vector<double> log_utility;
  for (int attempts = 0; scp.size() < 60 && attempts < 600; ++attempts) {
    auto trial_rng = rng.fork();
    const auto drawn =
        hydra::gen::generate_filtered_instance(config, trial_rng.uniform(0.8, 1.6), trial_rng);
    if (!drawn.has_value()) continue;
    const auto part = rt::partition_rt_tasks(drawn->instance.rt_tasks, 2);
    if (!part.has_value()) continue;
    std::vector<std::size_t> core_of(drawn->instance.security_tasks.size());
    for (auto& c : core_of) c = static_cast<std::size_t>(trial_rng.uniform_int(0, 1));
    const auto r = core::optimize_joint_periods(drawn->instance, *part, core_of);
    if (!r.feasible) continue;
    const auto s = surrogate_tightness(drawn->instance, *part, core_of, Surrogate::kSum);
    const auto l = surrogate_tightness(drawn->instance, *part, core_of, Surrogate::kLogUtility);
    ASSERT_TRUE(s.has_value() && l.has_value()) << "draw " << scp.size();
    EXPECT_GE(r.cumulative_tightness, *s * (1.0 - 2e-9)) << "draw " << scp.size();
    EXPECT_GE(r.cumulative_tightness, *l * (1.0 - 2e-9)) << "draw " << scp.size();
    scp.push_back(r.cumulative_tightness);
    sum.push_back(*s);
    log_utility.push_back(*l);
  }
  ASSERT_EQ(scp.size(), 60u);
  const auto mean = [](const std::vector<double>& v) {
    double acc = 0.0;
    for (const double x : v) acc += x;
    return acc / static_cast<double>(v.size());
  };
  EXPECT_NEAR(mean(scp), 3.2185, 5e-5);
  EXPECT_NEAR(mean(sum), 3.1974, 5e-5);
  EXPECT_NEAR(mean(log_utility), 3.2130, 5e-5);
}

TEST(JointPeriod, MatchesGridSearchOnCoupledPair) {
  const auto inst = coupled_instance();
  const auto part = trivial_partition(inst);
  const auto r = core::optimize_joint_periods(inst, part, {0, 0});
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
  const auto weighted = core::optimize_joint_periods(inst, part, {0, 0});

  core::Instance plain = coupled_instance();
  const auto unweighted = core::optimize_joint_periods(plain, part, {0, 0});
  ASSERT_TRUE(weighted.feasible);
  ASSERT_TRUE(unweighted.feasible);
  const double eta1_weighted = inst.security_tasks[1].period_des / weighted.periods[1];
  const double eta1_unweighted = plain.security_tasks[1].period_des / unweighted.periods[1];
  EXPECT_GE(eta1_weighted, eta1_unweighted - 1e-6);
}

TEST(JointPeriodBound, InfeasibleExactlyWhenSolveIsAndNeverBelowTheOptimum) {
  // For every assignment of seeded instances the bound must agree with the
  // solve on feasibility, and bound the tightness the solve and both GP
  // surrogates reach.
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (const std::size_t m : {2u, 3u}) {
    for (std::size_t ns = 1; ns <= 5; ++ns) {
      const std::uint64_t seed = 1000 * m + ns;
      const auto inst = random_instance(seed, m, ns);
      const auto part = round_robin_partition(inst);
      std::size_t total = 1;
      for (std::size_t s = 0; s < ns; ++s) total *= m;
      std::vector<std::size_t> core_of(ns);
      for (std::size_t code = 0; code < total; ++code) {
        for (std::size_t s = 0, rem = code; s < ns; ++s, rem /= m) core_of[s] = rem % m;
        const auto bound = core::joint_tightness_bound(inst, part, core_of);
        const auto r = core::optimize_joint_periods(inst, part, core_of);
        ASSERT_EQ(bound.has_value(), r.feasible) << "seed " << seed << " code " << code;
        if (r.feasible) {
          EXPECT_LE(r.cumulative_tightness, *bound) << "seed " << seed << " code " << code;
          for (const auto surrogate : {Surrogate::kSum, Surrogate::kLogUtility}) {
            EXPECT_LE(*surrogate_tightness(inst, part, core_of, surrogate), *bound)
                << "seed " << seed << " code " << code << " surrogate "
                << static_cast<int>(surrogate);
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
