// Tests for Algorithm 1 (HYDRA): line-by-line behaviours, invariants,
// independent re-validation, and option ablations.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "core/hydra.h"
#include "core/validation.h"
#include "gen/uav.h"
#include "rt/interference.h"
#include "rt/priority.h"
#include "sec/catalog.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace rt = hydra::rt;

namespace {

core::Instance small_instance() {
  core::Instance inst;
  inst.num_cores = 2;
  inst.rt_tasks = {rt::make_rt_task("r0", 2.0, 10.0), rt::make_rt_task("r1", 5.0, 20.0)};
  inst.security_tasks = {rt::make_security_task("s0", 10.0, 200.0, 2000.0),
                         rt::make_security_task("s1", 20.0, 300.0, 3000.0)};
  return inst;
}

}  // namespace

TEST(Hydra, FeasibleOnLightLoad) {
  const auto allocation = core::HydraAllocator().allocate(small_instance());
  ASSERT_TRUE(allocation.feasible) << allocation.failure_reason;
  const auto report = core::validate_allocation(small_instance(), allocation);
  EXPECT_TRUE(report.valid) << report.problem;
}

TEST(Hydra, IdlePlatformGivesPerfectTightness) {
  core::Instance inst;
  inst.num_cores = 4;
  inst.rt_tasks = {rt::make_rt_task("tiny", 0.1, 1000.0)};
  inst.security_tasks = {rt::make_security_task("s0", 5.0, 100.0, 1000.0),
                         rt::make_security_task("s1", 5.0, 150.0, 1500.0)};
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  for (const auto& p : allocation.placements) EXPECT_DOUBLE_EQ(p.tightness, 1.0);
}

TEST(Hydra, SpreadsTasksWhenTightnessTies) {
  // Idle cores everywhere → all η = 1; default tie-break spreads the load.
  core::Instance inst;
  inst.num_cores = 3;
  inst.security_tasks = {rt::make_security_task("s0", 50.0, 100.0, 1000.0),
                         rt::make_security_task("s1", 50.0, 110.0, 1100.0),
                         rt::make_security_task("s2", 50.0, 120.0, 1200.0)};
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  std::set<std::size_t> cores_used;
  for (const auto& p : allocation.placements) cores_used.insert(p.core);
  EXPECT_EQ(cores_used.size(), 3u);
}

TEST(Hydra, LowestIndexTieBreakPilesOnCoreZero) {
  core::Instance inst;
  inst.num_cores = 3;
  inst.security_tasks = {rt::make_security_task("s0", 1.0, 1000.0, 10000.0),
                         rt::make_security_task("s1", 1.0, 1100.0, 11000.0)};
  core::HydraOptions opts;
  opts.tie_break = core::TieBreak::kLowestIndex;
  const auto allocation = core::HydraAllocator(opts).allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  // Tiny tasks keep η = 1 on core 0 even with a neighbour there.
  for (const auto& p : allocation.placements) EXPECT_EQ(p.core, 0u);
}

TEST(Hydra, HigherPriorityTaskGetsTighterPeriodUnderContention) {
  // One busy core, two demanding security tasks: the higher-priority one
  // (smaller Tmax) is placed first and must get at least the tightness of the
  // second.
  core::Instance inst;
  inst.num_cores = 1;
  inst.rt_tasks = {rt::make_rt_task("r", 4.0, 10.0)};  // 40 % load
  inst.security_tasks = {rt::make_security_task("hi", 30.0, 100.0, 1000.0),
                         rt::make_security_task("lo", 30.0, 100.0, 2000.0)};
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible) << allocation.failure_reason;
  EXPECT_GE(allocation.placements[0].tightness, allocation.placements[1].tightness - 1e-9);
}

TEST(Hydra, UnschedulableWhenNoCoreFits) {
  core::Instance inst;
  inst.num_cores = 2;
  // Both cores nearly saturated by RT load.
  inst.rt_tasks = {rt::make_rt_task("r0", 9.0, 10.0), rt::make_rt_task("r1", 9.0, 10.0)};
  inst.security_tasks = {rt::make_security_task("s", 500.0, 1000.0, 3000.0)};
  const auto allocation = core::HydraAllocator().allocate(inst);
  EXPECT_FALSE(allocation.feasible);
  EXPECT_EQ(allocation.failed_task, 0u);
  EXPECT_FALSE(allocation.failure_reason.empty());
}

TEST(Hydra, FailedTaskIsFirstInPriorityOrderThatFails) {
  core::Instance inst;
  inst.num_cores = 1;
  inst.rt_tasks = {rt::make_rt_task("r", 8.0, 10.0)};  // 80 % load
  // "huge" has the smaller Tmax, so it is tried first and fails:
  // (900 + 8)/(1 − 0.8) = 4540 > Tmax = 3000.
  inst.security_tasks = {rt::make_security_task("huge", 900.0, 1000.0, 3000.0),
                         rt::make_security_task("tight", 10.0, 500.0, 5000.0)};
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_FALSE(allocation.feasible);
  EXPECT_EQ(allocation.failed_task, 0u);  // index of "huge"
}

TEST(Hydra, RtPartitionFailurePropagates) {
  core::Instance inst;
  inst.num_cores = 1;
  inst.rt_tasks = {rt::make_rt_task("r0", 6.0, 10.0), rt::make_rt_task("r1", 6.0, 10.0)};
  inst.security_tasks = {rt::make_security_task("s", 1.0, 100.0, 1000.0)};
  const auto allocation = core::HydraAllocator().allocate(inst);
  EXPECT_FALSE(allocation.feasible);
  EXPECT_NE(allocation.failure_reason.find("partition"), std::string::npos);
}

TEST(Hydra, ExternalPartitionShapeChecked) {
  const auto inst = small_instance();
  rt::Partition wrong;
  wrong.num_cores = 5;  // mismatch
  wrong.core_of = {0, 0};
  EXPECT_THROW(core::HydraAllocator().allocate(inst, wrong), std::invalid_argument);
}

TEST(Hydra, GpSolverOptionMatchesClosedForm) {
  const auto inst = hydra::gen::uav_case_study(2);
  core::HydraOptions gp_opts;
  gp_opts.solver = core::PeriodSolver::kGeometricProgram;
  const auto a_cf = core::HydraAllocator().allocate(inst);
  const auto a_gp = core::HydraAllocator(gp_opts).allocate(inst);
  ASSERT_TRUE(a_cf.feasible);
  ASSERT_TRUE(a_gp.feasible);
  ASSERT_EQ(a_cf.placements.size(), a_gp.placements.size());
  for (std::size_t s = 0; s < a_cf.placements.size(); ++s) {
    EXPECT_EQ(a_cf.placements[s].core, a_gp.placements[s].core);
    EXPECT_NEAR(a_cf.placements[s].period, a_gp.placements[s].period,
                a_cf.placements[s].period * 1e-3);
  }
}

TEST(Hydra, OptionAblationsStillValid) {
  // The default options, the lowest-index tie break and the GP subproblem
  // solver must give a feasible, independently validated allocation on the
  // UAV case study at M = 2 (where the ablation benches start) and M = 4.
  std::vector<core::HydraOptions> variants{core::HydraOptions{}};
  core::HydraOptions lowest_index;
  lowest_index.tie_break = core::TieBreak::kLowestIndex;
  variants.push_back(lowest_index);
  core::HydraOptions gp;
  gp.solver = core::PeriodSolver::kGeometricProgram;
  variants.push_back(gp);
  for (const std::size_t m : {2u, 4u}) {
    const auto inst = hydra::gen::uav_case_study(m);
    for (const auto& opts : variants) {
      const core::HydraAllocator scheme(opts);
      const auto allocation = scheme.allocate(inst);
      ASSERT_TRUE(allocation.feasible) << "M = " << m << ", " << scheme.describe();
      const auto report = core::validate_allocation(inst, allocation);
      EXPECT_TRUE(report.valid) << "M = " << m << ", " << scheme.describe() << ": "
                                << report.problem;
    }
  }
}

TEST(Hydra, MaxTightnessPickOptimalForFirstPlacedTask) {
  // Greedy argmax is only per-task optimal — globally, a different pick order
  // can do better (that myopia is exactly the Fig. 3 gap).  What MUST hold:
  // the first-placed (highest-priority) task gets exactly the best tightness
  // any single core offers against that core's RT tasks alone.
  for (const std::size_t m : {2u, 4u}) {
    const auto inst = hydra::gen::uav_case_study(m);
    const auto allocation = core::HydraAllocator().allocate(inst);
    ASSERT_TRUE(allocation.feasible) << "M = " << m;
    const std::size_t first = rt::security_priority_order(inst.security_tasks).front();
    const auto& task = inst.security_tasks[first];
    std::optional<double> best;
    for (std::size_t c = 0; c < m; ++c) {
      const auto on_core = allocation.rt_partition.tasks_on_core(inst.rt_tasks, c);
      const auto pa = core::adapt_period(task, rt::interference_bound(on_core, {}));
      if (pa.feasible && (!best.has_value() || pa.tightness > *best)) best = pa.tightness;
    }
    ASSERT_TRUE(best.has_value()) << "M = " << m;
    EXPECT_EQ(allocation.placements[first].tightness, *best) << "M = " << m;
  }
}

TEST(Hydra, UavCaseStudyAllCoreCounts) {
  for (const std::size_t m : {2u, 4u, 8u}) {
    const auto inst = hydra::gen::uav_case_study(m);
    const auto allocation = core::HydraAllocator().allocate(inst);
    ASSERT_TRUE(allocation.feasible) << "M = " << m;
    const auto report = core::validate_allocation(inst, allocation);
    EXPECT_TRUE(report.valid) << report.problem;
    // With ample cores the catalog should reach perfect tightness.
    if (m >= 4) {
      for (const auto& p : allocation.placements) EXPECT_NEAR(p.tightness, 1.0, 1e-9);
    }
  }
}

TEST(Instance, SecurityOnCoreGroupsPlacements) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  std::size_t covered = 0;
  for (std::size_t c = 0; c < inst.num_cores; ++c) {
    for (const std::size_t s : allocation.security_on_core(c)) {
      EXPECT_EQ(allocation.placements[s].core, c);
      ++covered;
    }
  }
  EXPECT_EQ(covered, inst.security_tasks.size());
}

TEST(Instance, WithPriorityWeightsFollowsTmaxOrder) {
  auto inst = hydra::gen::uav_case_study(2);
  const auto weighted = core::with_priority_weights(inst);
  // Catalog is Tmax-ascending, so weights are NS, NS-1, ..., 1 in order.
  const auto n = weighted.security_tasks.size();
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_DOUBLE_EQ(weighted.security_tasks[s].weight, static_cast<double>(n - s));
  }
  // Weighted cumulative tightness scales accordingly on a feasible set.
  const auto plain_alloc = core::HydraAllocator().allocate(inst);
  const auto weighted_alloc = core::HydraAllocator().allocate(weighted);
  ASSERT_TRUE(plain_alloc.feasible);
  ASSERT_TRUE(weighted_alloc.feasible);
  EXPECT_GT(weighted_alloc.cumulative_tightness(weighted.security_tasks),
            plain_alloc.cumulative_tightness(inst.security_tasks));
}

TEST(Hydra, ChainConsistentOrderEndToEnd) {
  // Force a priority order where a large-Tmax task must be checked first
  // (the §V "check own binary before system binaries" pattern) and verify
  // allocator + validator + simulator all agree on it.
  core::Instance inst;
  inst.num_cores = 1;
  inst.rt_tasks = {rt::make_rt_task("r", 2.0, 10.0)};
  inst.security_tasks = {
      rt::make_security_task("self_check", 200.0, 1000.0, 20000.0),   // big Tmax
      rt::make_security_task("system_check", 400.0, 1200.0, 12000.0), // small Tmax
  };
  const hydra::sec::Chain chain{{0, 1}};  // self_check before system_check
  const auto order = hydra::sec::chain_consistent_order(inst.security_tasks, {chain});
  ASSERT_EQ(order[0], 0u);  // override flips the Tmax order

  core::HydraOptions opts;
  opts.priority_order = order;
  const auto allocation = core::HydraAllocator(opts).allocate(inst);
  ASSERT_TRUE(allocation.feasible) << allocation.failure_reason;
  // Under the override, self_check is placed first: its tightness can only
  // be >= system_check's on the shared core.
  EXPECT_GE(allocation.placements[0].tightness, allocation.placements[1].tightness - 1e-9);

  const auto report = core::validate_allocation(inst, allocation, order);
  EXPECT_TRUE(report.valid) << report.problem;
}

TEST(Hydra, BadPriorityOrderRejected) {
  const auto inst = small_instance();
  core::HydraOptions opts;
  opts.priority_order = std::vector<std::size_t>{0};  // wrong size
  EXPECT_THROW(core::HydraAllocator(opts).allocate(inst), std::invalid_argument);
  opts.priority_order = std::vector<std::size_t>{0, 0};  // not a permutation
  EXPECT_THROW(core::HydraAllocator(opts).allocate(inst), std::invalid_argument);
}

// Property sweep: every feasible HYDRA allocation passes independent
// validation; infeasible results always name a failing task.
class HydraProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HydraProperty, AllocationsAlwaysValidOrExplained) {
  hydra::util::Xoshiro256 rng(GetParam());
  for (int rep = 0; rep < 10; ++rep) {
    core::Instance inst;
    inst.num_cores = 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
    const int nr = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < nr; ++i) {
      const double period = rng.uniform(10.0, 500.0);
      inst.rt_tasks.push_back(rt::make_rt_task(
          "r" + std::to_string(i), rng.uniform(0.05, 0.3) * period, period));
    }
    const int ns = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < ns; ++i) {
      const double t_des = rng.uniform(500.0, 3000.0);
      inst.security_tasks.push_back(rt::make_security_task(
          "s" + std::to_string(i), rng.uniform(0.02, 0.4) * t_des, t_des, 10.0 * t_des));
    }
    const auto allocation = core::HydraAllocator().allocate(inst);
    if (allocation.feasible) {
      const auto report = core::validate_allocation(inst, allocation);
      EXPECT_TRUE(report.valid) << report.problem;
    } else {
      EXPECT_FALSE(allocation.failure_reason.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HydraProperty,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005, 6006));

// Monotonicity properties the greedy must satisfy despite its myopia.
class HydraMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HydraMonotonicity, MoreCoresNeverHurtFeasibility) {
  // The same tasks on more cores: feasibility must be preserved (every core's
  // subproblem set only grows), and tightness must not degrade.
  hydra::util::Xoshiro256 rng(GetParam());
  core::Instance inst;
  inst.num_cores = 2;
  const int nr = static_cast<int>(rng.uniform_int(2, 5));
  for (int i = 0; i < nr; ++i) {
    const double period = rng.uniform(20.0, 400.0);
    inst.rt_tasks.push_back(
        rt::make_rt_task("r" + std::to_string(i), rng.uniform(0.1, 0.3) * period, period));
  }
  const int ns = static_cast<int>(rng.uniform_int(2, 6));
  for (int i = 0; i < ns; ++i) {
    const double t_des = rng.uniform(800.0, 3000.0);
    inst.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.1, 0.4) * t_des, t_des, 10.0 * t_des));
  }

  // Keep the RT partition FIXED (pad with empty cores) so only the security
  // side of the design space grows.
  const auto base_partition = hydra::rt::partition_rt_tasks(inst.rt_tasks, 2);
  if (!base_partition.has_value()) GTEST_SKIP() << "RT tasks do not fit two cores";

  const auto small = core::HydraAllocator().allocate(inst, *base_partition);

  core::Instance wide = inst;
  wide.num_cores = 4;
  hydra::rt::Partition padded = *base_partition;
  padded.num_cores = 4;
  const auto large = core::HydraAllocator().allocate(wide, padded);

  if (small.feasible) {
    ASSERT_TRUE(large.feasible);
    EXPECT_GE(large.cumulative_tightness(wide.security_tasks),
              small.cumulative_tightness(inst.security_tasks) - 1e-9);
  }
}

TEST_P(HydraMonotonicity, DroppingAMonitorNeverHurts) {
  // Removing the lowest-priority security task cannot make the set
  // unschedulable or reduce the remaining tasks' tightness.
  hydra::util::Xoshiro256 rng(GetParam() ^ 0xabcdef);
  core::Instance inst;
  inst.num_cores = 2;
  inst.rt_tasks = {rt::make_rt_task("r", rng.uniform(2.0, 6.0), 20.0)};
  const int ns = static_cast<int>(rng.uniform_int(3, 6));
  for (int i = 0; i < ns; ++i) {
    const double t_des = rng.uniform(800.0, 2500.0);
    inst.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.2, 0.5) * t_des, t_des, 8.0 * t_des));
  }
  const auto full = core::HydraAllocator().allocate(inst);
  if (!full.feasible) GTEST_SKIP() << "full set infeasible";

  // Drop the globally lowest-priority task (largest Tmax).
  const auto order = hydra::rt::security_priority_order(inst.security_tasks);
  core::Instance reduced = inst;
  reduced.security_tasks.erase(reduced.security_tasks.begin() +
                               static_cast<std::ptrdiff_t>(order.back()));
  const auto partial = core::HydraAllocator().allocate(reduced);
  ASSERT_TRUE(partial.feasible);
  // Each surviving task keeps (at least) its tightness: the dropped task was
  // lowest priority, so it never interfered with the others' subproblems.
  std::size_t k = 0;
  for (std::size_t s = 0; s < inst.security_tasks.size(); ++s) {
    if (s == order.back()) continue;
    EXPECT_GE(partial.placements[k].tightness, full.placements[s].tightness - 1e-9)
        << inst.security_tasks[s].name;
    ++k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HydraMonotonicity,
                         ::testing::Values(21, 42, 63, 84, 105, 126));
