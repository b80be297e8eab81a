// Tests for the SingleCore comparator: dedicated-core semantics, the
// "no RT interference" property, and comparisons against HYDRA.
#include <gtest/gtest.h>

#include "core/hydra.h"
#include "core/single_core.h"
#include "core/validation.h"
#include "gen/uav.h"
#include "rt/task.h"

namespace core = hydra::core;
namespace rt = hydra::rt;

TEST(SingleCore, AllSecurityOnLastCore) {
  const auto inst = hydra::gen::uav_case_study(4);
  const auto allocation = core::SingleCoreAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible) << allocation.failure_reason;
  for (const auto& p : allocation.placements) EXPECT_EQ(p.core, 3u);
  // And no RT task sits there.
  for (const std::size_t c : allocation.rt_partition.core_of) EXPECT_LT(c, 3u);
}

TEST(SingleCore, ValidAgainstIndependentChecker) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto allocation = core::SingleCoreAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  const auto report = core::validate_allocation(inst, allocation);
  EXPECT_TRUE(report.valid) << report.problem;
}

TEST(SingleCore, RequiresAtLeastTwoCores) {
  auto inst = hydra::gen::uav_case_study(2);
  inst.num_cores = 1;
  EXPECT_THROW(core::SingleCoreAllocator().allocate(inst), std::invalid_argument);
}

TEST(SingleCore, RtPackingOnMMinusOneCanFail) {
  core::Instance inst;
  inst.num_cores = 2;  // RT must fit on a single core
  inst.rt_tasks = {rt::make_rt_task("r0", 6.0, 10.0), rt::make_rt_task("r1", 6.0, 10.0)};
  inst.security_tasks = {rt::make_security_task("s", 1.0, 100.0, 1000.0)};
  const auto allocation = core::SingleCoreAllocator().allocate(inst);
  EXPECT_FALSE(allocation.feasible);
  EXPECT_NE(allocation.failure_reason.find("M-1"), std::string::npos);
}

TEST(SingleCore, SecurityTasksSeeNoRtInterference) {
  // A heavy RT load must not affect the dedicated core's periods: the same
  // security set must get identical periods regardless of RT demand.
  core::Instance heavy;
  heavy.num_cores = 3;
  heavy.rt_tasks = {rt::make_rt_task("r0", 7.0, 10.0), rt::make_rt_task("r1", 7.0, 10.0)};
  heavy.security_tasks = {rt::make_security_task("s0", 100.0, 1000.0, 10000.0),
                          rt::make_security_task("s1", 200.0, 1500.0, 15000.0)};
  core::Instance light = heavy;
  light.rt_tasks = {rt::make_rt_task("tiny", 0.1, 1000.0)};

  const auto a_heavy = core::SingleCoreAllocator().allocate(heavy);
  const auto a_light = core::SingleCoreAllocator().allocate(light);
  ASSERT_TRUE(a_heavy.feasible);
  ASSERT_TRUE(a_light.feasible);
  for (std::size_t s = 0; s < heavy.security_tasks.size(); ++s) {
    EXPECT_DOUBLE_EQ(a_heavy.placements[s].period, a_light.placements[s].period);
  }
}

TEST(SingleCore, MutualInterferenceInflatesLowPriorityPeriods) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto allocation = core::SingleCoreAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  // The Table-I catalog demands ≈1.6 cores at desired rates: the lowest-
  // priority monitors cannot hold η = 1 on one core.
  const auto& last = allocation.placements.back();  // bro (largest Tmax)
  EXPECT_GT(last.period, inst.security_tasks.back().period_des * 1.5);
}

TEST(SingleCore, HydraDominatesOnTightness) {
  // With more cores available HYDRA must achieve at least SingleCore's
  // cumulative tightness on the case study.
  for (const std::size_t m : {2u, 4u, 8u}) {
    const auto inst = hydra::gen::uav_case_study(m);
    const auto hydra_alloc = core::HydraAllocator().allocate(inst);
    const auto single_alloc = core::SingleCoreAllocator().allocate(inst);
    ASSERT_TRUE(hydra_alloc.feasible);
    ASSERT_TRUE(single_alloc.feasible);
    EXPECT_GE(hydra_alloc.cumulative_tightness(inst.security_tasks),
              single_alloc.cumulative_tightness(inst.security_tasks) - 1e-9)
        << "M = " << m;
  }
}

TEST(SingleCore, InfeasibleSecurityTaskNamed) {
  core::Instance inst;
  inst.num_cores = 2;
  inst.rt_tasks = {rt::make_rt_task("r", 1.0, 10.0)};
  // Two monitors that cannot share one core even at Tmax:
  // (C=900, Tdes=1000, Tmax=1200) twice → utilization at Tmax is 1.5.
  inst.security_tasks = {rt::make_security_task("s0", 900.0, 1000.0, 1200.0),
                         rt::make_security_task("s1", 900.0, 1000.0, 1200.0)};
  const auto allocation = core::SingleCoreAllocator().allocate(inst);
  ASSERT_FALSE(allocation.feasible);
  EXPECT_EQ(allocation.failed_task, 1u);  // the lower-priority twin fails
}
