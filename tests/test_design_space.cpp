// Tests for the design-space exploration driver.
#include <gtest/gtest.h>

#include <cmath>

#include "core/design_space.h"
#include "core/hydra.h"
#include "core/optimal.h"
#include "core/single_core.h"
#include "gen/uav.h"
#include "rt/task.h"

namespace core = hydra::core;
namespace rt = hydra::rt;

TEST(DesignSpace, EvaluatesAllSchemesOnTheCaseStudy) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto report = core::explore_design_space(inst);
  // The paper's line-up under its registry names (2^6 = 64 fits the budget).
  ASSERT_EQ(report.points.size(), 4u);
  EXPECT_EQ(report.points[0].scheme, "hydra");
  EXPECT_EQ(report.points[1].scheme, "hydra/exact-rta");
  EXPECT_EQ(report.points[2].scheme, "single-core");
  EXPECT_EQ(report.points[3].scheme, "optimal");
  for (const auto& p : report.points) {
    EXPECT_TRUE(p.allocation.feasible) << p.scheme;
    EXPECT_TRUE(p.validated) << p.scheme << ": " << p.validation_problem;
    EXPECT_GT(p.cumulative_tightness, 0.0);
    EXPECT_LE(p.normalized_tightness, 1.0 + 1e-9);
  }
  EXPECT_TRUE(report.any_feasible());
}

TEST(DesignSpace, BestPointDominates) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto report = core::explore_design_space(inst);
  const auto best = report.best_index();
  ASSERT_TRUE(best.has_value());
  for (const auto& p : report.points) {
    if (p.allocation.feasible && p.validated) {
      EXPECT_GE(report.points[*best].cumulative_tightness,
                p.cumulative_tightness - 1e-9);
    }
  }
  // Optimal (or exact-RTA HYDRA) must be at least as tight as plain HYDRA.
  EXPECT_GE(report.points[*best].cumulative_tightness,
            report.points[0].cumulative_tightness - 1e-9);
}

TEST(DesignSpace, SingleCoreReportedInfeasibleOnUniprocessor) {
  core::Instance inst;
  inst.num_cores = 1;
  inst.rt_tasks = {rt::make_rt_task("r", 1.0, 10.0)};
  inst.security_tasks = {rt::make_security_task("s", 10.0, 500.0, 5000.0)};
  const auto report = core::explore_design_space(inst);
  ASSERT_EQ(report.points.size(), 4u);
  const auto& single = report.points[2];
  EXPECT_EQ(single.scheme, "single-core");
  EXPECT_FALSE(single.allocation.feasible);
  EXPECT_NE(single.allocation.failure_reason.find("two cores"), std::string::npos)
      << single.allocation.failure_reason;
  EXPECT_TRUE(report.points[0].allocation.feasible);
}

TEST(DesignSpace, OptimalOmittedWhenOverTheSweepBudget) {
  // 8^6 = 262144 assignments exceeds kDefaultOptimalBudget (4096).
  const auto inst = hydra::gen::uav_case_study(8);
  ASSERT_GT(std::pow(8.0, static_cast<double>(inst.security_tasks.size())),
            static_cast<double>(core::kDefaultOptimalBudget));
  const auto report = core::explore_design_space(inst);
  ASSERT_EQ(report.points.size(), 3u);
  for (const auto& p : report.points) EXPECT_NE(p.scheme, "optimal");
}

TEST(DesignSpace, InfeasibleInstanceReportsNoFeasiblePoint) {
  core::Instance inst;
  inst.num_cores = 2;
  inst.rt_tasks = {rt::make_rt_task("r0", 9.5, 10.0), rt::make_rt_task("r1", 9.5, 10.0)};
  inst.security_tasks = {rt::make_security_task("s", 900.0, 1000.0, 2000.0)};
  const auto report = core::explore_design_space(inst);
  EXPECT_FALSE(report.any_feasible());
  EXPECT_FALSE(report.best_index().has_value());
}

TEST(DesignSpace, ConvenienceMatchesDirectAllocatorResults) {
  // explore_design_space is a thin layer over the Allocator interface: its
  // points must equal what the concrete allocators produce directly.
  const auto instance = hydra::gen::uav_case_study(2);
  const auto report = core::explore_design_space(instance);
  ASSERT_EQ(report.points.size(), 4u);

  const auto direct_hydra = core::HydraAllocator().allocate(instance);
  EXPECT_DOUBLE_EQ(report.points[0].cumulative_tightness,
                   direct_hydra.cumulative_tightness(instance.security_tasks));

  core::HydraOptions exact;
  exact.solver = core::PeriodSolver::kExactRta;
  const auto direct_exact = core::HydraAllocator(exact).allocate(instance);
  EXPECT_DOUBLE_EQ(report.points[1].cumulative_tightness,
                   direct_exact.cumulative_tightness(instance.security_tasks));

  const auto direct_single = core::SingleCoreAllocator().allocate(instance);
  EXPECT_DOUBLE_EQ(report.points[2].cumulative_tightness,
                   direct_single.cumulative_tightness(instance.security_tasks));

  const auto direct_optimal = core::OptimalAllocator().allocate(instance);
  EXPECT_DOUBLE_EQ(report.points[3].cumulative_tightness,
                   direct_optimal.cumulative_tightness(instance.security_tasks));
}

TEST(DesignSpace, RegistrySchemeSelectionOverload) {
  const auto instance = hydra::gen::uav_case_study(2);
  const auto report =
      core::explore_design_space(instance, {"single-core", "hydra/first-fit"});
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_EQ(report.points[0].scheme, "single-core");
  EXPECT_EQ(report.points[1].scheme, "hydra/first-fit");
  EXPECT_THROW(core::explore_design_space(instance, {"nope"}), std::invalid_argument);
}
