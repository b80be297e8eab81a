// Tests for the exhaustive Optimal allocator: dominance over HYDRA, agreement
// with brute force on tiny cases, the enumeration guard, and byte-identity of
// the bound-pruned search with a plain enumeration of every assignment.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/hydra.h"
#include "core/optimal.h"
#include "core/scp_warm.h"
#include "core/validation.h"
#include "rt/partition.h"
#include "rt/task.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace rt = hydra::rt;

namespace {

core::Instance contended_instance(std::uint64_t seed, std::size_t ns, std::size_t m = 2) {
  hydra::util::Xoshiro256 rng(seed);
  core::Instance inst;
  inst.num_cores = m;
  for (int i = 0; i < 3; ++i) {
    const double period = rng.uniform(20.0, 200.0);
    inst.rt_tasks.push_back(
        rt::make_rt_task("r" + std::to_string(i), rng.uniform(0.1, 0.25) * period, period));
  }
  for (std::size_t i = 0; i < ns; ++i) {
    const double t_des = rng.uniform(800.0, 3000.0);
    inst.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.15, 0.45) * t_des, t_des, 10.0 * t_des));
  }
  return inst;
}

/// Reference: the plain enumeration the bound-pruned search replaced.  Every
/// assignment is solved in code order and a strictly better value wins, so
/// ties go to the lowest code.
core::Allocation enumerate_every_assignment(const core::Instance& instance,
                                            const rt::Partition& rt_partition,
                                            const core::JointPeriodOptions& joint) {
  const std::size_t ns = instance.security_tasks.size();
  const std::size_t m = instance.num_cores;
  core::Allocation best;
  best.rt_partition = rt_partition;
  best.failed_task = ns == 0 ? 0 : std::numeric_limits<std::size_t>::max();
  best.failure_reason = "no assignment admits acceptable periods for every task";
  double best_value = -1.0;

  std::size_t total = 1;
  for (std::size_t s = 0; s < ns; ++s) total *= m;
  std::vector<std::size_t> core_of(ns, 0);
  for (std::size_t code = 0; code < total; ++code) {
    std::size_t rem = code;
    for (std::size_t s = 0; s < ns; ++s) {
      core_of[s] = rem % m;
      rem /= m;
    }
    const auto r = core::optimize_joint_periods(instance, rt_partition, core_of, joint);
    if (!r.feasible) continue;
    if (r.cumulative_tightness > best_value) {
      best_value = r.cumulative_tightness;
      best.feasible = true;
      best.failure_reason.clear();
      best.placements.assign(ns, core::TaskPlacement{});
      for (std::size_t s = 0; s < ns; ++s) {
        best.placements[s] = core::TaskPlacement{
            core_of[s], r.periods[s], instance.security_tasks[s].period_des / r.periods[s]};
      }
    }
  }
  if (ns == 0) best.feasible = true;
  return best;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_identical(const core::Allocation& expected, const core::Allocation& actual,
                      const std::string& where) {
  EXPECT_EQ(expected.feasible, actual.feasible) << where;
  EXPECT_EQ(expected.failed_task, actual.failed_task) << where;
  EXPECT_EQ(expected.failure_reason, actual.failure_reason) << where;
  EXPECT_EQ(expected.rt_partition.core_of, actual.rt_partition.core_of) << where;
  ASSERT_EQ(expected.placements.size(), actual.placements.size()) << where;
  for (std::size_t s = 0; s < expected.placements.size(); ++s) {
    EXPECT_EQ(expected.placements[s].core, actual.placements[s].core) << where << " task " << s;
    EXPECT_TRUE(same_bits(expected.placements[s].period, actual.placements[s].period))
        << where << " task " << s;
    EXPECT_TRUE(same_bits(expected.placements[s].tightness, actual.placements[s].tightness))
        << where << " task " << s;
  }
}

/// A fixed warm start per solve: the geometric mean of each task's period
/// range.  A pure function of the instance, as the sweep's sources are.
core::ScpWarmStartHooks geometric_mean_source(const core::Instance& inst) {
  std::vector<double> warm;
  for (const auto& t : inst.security_tasks) warm.push_back(std::sqrt(t.period_des * t.period_max));
  core::ScpWarmStartHooks hooks;
  hooks.source = [warm](std::size_t) { return std::vector<std::vector<double>>{warm}; };
  return hooks;
}

constexpr core::JointObjective kObjectives[] = {core::JointObjective::kSignomialScp,
                                                core::JointObjective::kSumSurrogate,
                                                core::JointObjective::kLogUtility};

}  // namespace

TEST(Optimal, FeasibleAndValidOnSmallInstance) {
  const auto inst = contended_instance(9, 3);
  const auto allocation = core::OptimalAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible) << allocation.failure_reason;
  const auto report = core::validate_allocation(inst, allocation);
  EXPECT_TRUE(report.valid) << report.problem;
}

TEST(Optimal, DominatesHydraTightness) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const auto inst = contended_instance(seed, 4);
    const auto hydra_alloc = core::HydraAllocator().allocate(inst);
    const auto optimal_alloc = core::OptimalAllocator().allocate(inst);
    if (!hydra_alloc.feasible) continue;  // nothing to dominate
    ASSERT_TRUE(optimal_alloc.feasible) << "optimal must succeed whenever HYDRA does";
    EXPECT_GE(optimal_alloc.cumulative_tightness(inst.security_tasks),
              hydra_alloc.cumulative_tightness(inst.security_tasks) - 1e-6)
        << "seed " << seed;
  }
}

TEST(Optimal, SeparatesHeavyMonitorsThatCannotShareACore) {
  // Two monitors whose combined demand saturates a core: the only feasible
  // assignments use distinct cores, and Optimal must find one.
  core::Instance inst;
  inst.num_cores = 2;
  inst.security_tasks = {rt::make_security_task("a", 800.0, 1000.0, 1500.0),
                         rt::make_security_task("b", 800.0, 1000.0, 1500.0)};
  const auto optimal_alloc = core::OptimalAllocator().allocate(inst);
  ASSERT_TRUE(optimal_alloc.feasible);
  EXPECT_NE(optimal_alloc.placements[0].core, optimal_alloc.placements[1].core);
}

TEST(Optimal, MatchesBruteForceOnTinyCase) {
  // One core, one security task: optimal period = closed form.
  core::Instance inst;
  inst.num_cores = 1;
  inst.rt_tasks = {rt::make_rt_task("r", 3.0, 10.0)};
  inst.security_tasks = {rt::make_security_task("s", 200.0, 500.0, 5000.0)};
  const auto allocation = core::OptimalAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  // (200 + 3)/(1 − 0.3) = 290 < 500 → period Tdes, η = 1.
  EXPECT_NEAR(allocation.placements[0].period, 500.0, 1.0);
}

TEST(Optimal, InfeasibleWhenNoAssignmentWorks) {
  core::Instance inst;
  inst.num_cores = 2;
  inst.rt_tasks = {rt::make_rt_task("r0", 9.0, 10.0), rt::make_rt_task("r1", 9.0, 10.0)};
  inst.security_tasks = {rt::make_security_task("s", 800.0, 1000.0, 1500.0)};
  const auto allocation = core::OptimalAllocator().allocate(inst);
  EXPECT_FALSE(allocation.feasible);
  EXPECT_FALSE(allocation.failure_reason.empty());
}

TEST(Optimal, EnumerationGuardThrows) {
  core::Instance inst;
  inst.num_cores = 4;
  for (int i = 0; i < 12; ++i) {
    inst.security_tasks.push_back(
        rt::make_security_task("s" + std::to_string(i), 1.0, 100.0, 1000.0));
  }
  core::OptimalOptions opts;
  opts.max_assignments = 1000;  // 4^12 »  1000
  EXPECT_THROW(core::OptimalAllocator(opts).allocate(inst), std::invalid_argument);
}

TEST(Optimal, EmptySecuritySetFeasible) {
  core::Instance inst;
  inst.num_cores = 2;
  inst.rt_tasks = {rt::make_rt_task("r", 1.0, 10.0)};
  const auto allocation = core::OptimalAllocator().allocate(inst);
  EXPECT_TRUE(allocation.feasible);
  EXPECT_TRUE(allocation.placements.empty());
}

// Property: on random small instances, Optimal(SignomialScp) is never beaten
// by HYDRA and both validate independently.
class OptimalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalProperty, DominanceAndValidity) {
  const auto inst = contended_instance(GetParam(), 3);
  const auto hydra_alloc = core::HydraAllocator().allocate(inst);
  const auto optimal_alloc = core::OptimalAllocator().allocate(inst);
  if (optimal_alloc.feasible) {
    const auto report = core::validate_allocation(inst, optimal_alloc);
    EXPECT_TRUE(report.valid) << report.problem;
  }
  if (hydra_alloc.feasible) {
    ASSERT_TRUE(optimal_alloc.feasible);
    EXPECT_GE(optimal_alloc.cumulative_tightness(inst.security_tasks),
              hydra_alloc.cumulative_tightness(inst.security_tasks) - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

// The bound-pruned, best-first search must return exactly the allocation of
// the plain enumeration: same feasibility verdict, same assignment, and the
// same period and tightness bits, for every objective, with and without a
// warm-start source installed.
TEST(OptimalDifferential, PrunedSearchMatchesFullEnumerationBitForBit) {
  std::size_t feasible = 0;
  for (const std::size_t m : {2u, 3u}) {
    for (std::size_t ns = 1; ns <= 4; ++ns) {
      for (const std::uint64_t seed : {1u, 2u}) {
        const auto inst = contended_instance(100 * m + 10 * ns + seed, ns, m);
        const auto part = rt::partition_rt_tasks(inst.rt_tasks, m);
        ASSERT_TRUE(part.has_value());
        for (const auto objective : kObjectives) {
          core::OptimalOptions opts;
          opts.joint.objective = objective;
          const core::OptimalAllocator optimal(opts);
          for (const bool warm : {false, true}) {
            std::optional<core::ScpWarmStartScope> scope;
            if (warm) scope.emplace(geometric_mean_source(inst));
            const std::string where = "m " + std::to_string(m) + " ns " + std::to_string(ns) +
                                      " seed " + std::to_string(seed) + " objective " +
                                      std::to_string(static_cast<int>(objective)) +
                                      (warm ? " warm" : " cold");
            const auto expected = enumerate_every_assignment(inst, *part, opts.joint);
            const auto actual = optimal.allocate(inst, *part);
            expect_identical(expected, actual, where);
            feasible += actual.feasible ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(feasible, 0u);
}

TEST(OptimalDifferential, BlockingAndInfeasibleInstancesMatch) {
  // Nonzero blocking shifts every bound; a saturated platform has no
  // feasible assignment at all.
  auto inst = contended_instance(77, 4, 2);
  const auto part = rt::partition_rt_tasks(inst.rt_tasks, 2);
  ASSERT_TRUE(part.has_value());
  core::OptimalOptions opts;
  opts.joint.blocking = 5.0;
  expect_identical(enumerate_every_assignment(inst, *part, opts.joint),
                   core::OptimalAllocator(opts).allocate(inst, *part), "blocking");

  core::Instance saturated;
  saturated.num_cores = 2;
  saturated.rt_tasks = {rt::make_rt_task("r0", 9.0, 10.0), rt::make_rt_task("r1", 9.0, 10.0)};
  saturated.security_tasks = {rt::make_security_task("a", 800.0, 1000.0, 1500.0),
                              rt::make_security_task("b", 300.0, 1000.0, 1500.0)};
  rt::Partition split;
  split.num_cores = 2;
  split.core_of = {0, 1};
  const auto actual = core::OptimalAllocator().allocate(saturated, split);
  EXPECT_FALSE(actual.feasible);
  expect_identical(enumerate_every_assignment(saturated, split, {}), actual, "saturated");
}

TEST(OptimalDifferential, SymmetricCoresTieToTheLowestCode) {
  // Two cores carrying bit-identical RT loads: every assignment ties with
  // its core swap, so the winner must be the lower code of the pair — the
  // one that leaves the last (most significant) task on core 0.
  core::Instance inst;
  inst.num_cores = 2;
  inst.rt_tasks = {rt::make_rt_task("r0", 3.0, 20.0), rt::make_rt_task("r1", 3.0, 20.0)};
  hydra::util::Xoshiro256 rng(5);
  for (int i = 0; i < 4; ++i) {
    const double t_des = rng.uniform(800.0, 3000.0);
    inst.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.15, 0.45) * t_des, t_des, 10.0 * t_des));
  }
  rt::Partition split;
  split.num_cores = 2;
  split.core_of = {0, 1};
  for (const auto objective : kObjectives) {
    core::OptimalOptions opts;
    opts.joint.objective = objective;
    const auto actual = core::OptimalAllocator(opts).allocate(inst, split);
    ASSERT_TRUE(actual.feasible);
    EXPECT_EQ(actual.placements.back().core, 0u);
    expect_identical(enumerate_every_assignment(inst, split, opts.joint), actual,
                     "objective " + std::to_string(static_cast<int>(objective)));
  }
}

TEST(OptimalDifferential, SolvesFewerAssignmentsThanAreFeasible) {
  // The pruning must actually skip solves: count kSignomialScp solves through
  // a warm-start source (called once per solve, returning nothing) against
  // the corner-feasible assignments the plain enumeration would solve.
  std::size_t solves = 0;
  std::size_t feasible = 0;
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const auto inst = contended_instance(seed, 4);
    const auto part = rt::partition_rt_tasks(inst.rt_tasks, 2);
    ASSERT_TRUE(part.has_value());
    for (std::size_t code = 0; code < 16; ++code) {
      std::vector<std::size_t> core_of(4);
      for (std::size_t s = 0; s < 4; ++s) core_of[s] = (code >> s) & 1u;
      feasible += core::joint_tightness_bound(inst, *part, core_of).has_value() ? 1 : 0;
    }
    core::ScpWarmStartHooks counting;
    counting.source = [&solves](std::size_t) {
      ++solves;
      return std::vector<std::vector<double>>{};
    };
    const core::ScpWarmStartScope scope(std::move(counting));
    core::OptimalAllocator().allocate(inst, *part);
  }
  EXPECT_LT(solves, feasible);
}
