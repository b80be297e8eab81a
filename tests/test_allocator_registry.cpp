// Tests for the pluggable Allocator interface and the scheme registry.
#include <gtest/gtest.h>

#include "core/allocator.h"
#include "core/hydra.h"
#include "core/optimal.h"
#include "core/registry.h"
#include "core/single_core.h"
#include "gen/uav.h"

namespace core = hydra::core;

TEST(AllocatorRegistry, EveryRegisteredNameConstructsAndAllocates) {
  // Round-trip: every entry constructs, reports the registered name, and
  // produces a feasible, independently validated allocation on the M = 2 UAV
  // case study (which every scheme — even the adversarial ablation — solves).
  const auto& registry = core::AllocatorRegistry::global();
  const auto instance = hydra::gen::uav_case_study(2);
  for (const auto& name : registry.names()) {
    const auto scheme = registry.make(name);
    ASSERT_NE(scheme, nullptr) << name;
    EXPECT_EQ(scheme->name(), name);
    EXPECT_FALSE(scheme->describe().empty()) << name;
    const auto point = core::evaluate_scheme(*scheme, instance);
    EXPECT_EQ(point.scheme, name);
    EXPECT_TRUE(point.allocation.feasible) << name;
    EXPECT_TRUE(point.validated) << name << ": " << point.validation_problem;
    EXPECT_GT(point.cumulative_tightness, 0.0) << name;
  }
}

TEST(AllocatorRegistry, MakeAllFollowsSelectionOrder) {
  const auto schemes =
      core::AllocatorRegistry::global().make_all({"single-core", "hydra", "optimal"});
  ASSERT_EQ(schemes.size(), 3u);
  EXPECT_EQ(schemes[0]->name(), "single-core");
  EXPECT_EQ(schemes[1]->name(), "hydra");
  EXPECT_EQ(schemes[2]->name(), "optimal");
  EXPECT_THROW(core::AllocatorRegistry::global().make_all({}), std::invalid_argument);
}

TEST(Allocator, SearchSpaceReflectsSchemeCost) {
  const auto instance = hydra::gen::uav_case_study(2);  // M = 2, NS = 6
  EXPECT_DOUBLE_EQ(core::HydraAllocator().search_space(instance), 1.0);
  EXPECT_DOUBLE_EQ(core::OptimalAllocator().search_space(instance), 64.0);
}

TEST(Allocator, ValidationContractMatchesOptions) {
  core::HydraOptions exact;
  exact.test = core::ScheduleTest::kExactRta;
  EXPECT_EQ(core::HydraAllocator(exact).schedule_test(), core::ScheduleTest::kExactRta);
  EXPECT_EQ(core::HydraAllocator().schedule_test(), core::ScheduleTest::kLinearBound);

  EXPECT_EQ(core::SingleCoreAllocator().priority_order(), std::nullopt);
}

TEST(Allocator, PolymorphicUseThroughTheBaseInterface) {
  const auto instance = hydra::gen::uav_case_study(2);
  const auto& registry = core::AllocatorRegistry::global();
  // The exact-RTA variant admits periods at least as tight as the paper
  // configuration — checked entirely through Allocator*.
  const auto base = registry.make("hydra");
  const auto exact = registry.make("hydra/exact-rta");
  const auto p_base = core::evaluate_scheme(*base, instance);
  const auto p_exact = core::evaluate_scheme(*exact, instance);
  ASSERT_TRUE(p_base.allocation.feasible);
  ASSERT_TRUE(p_exact.allocation.feasible);
  EXPECT_GE(p_exact.cumulative_tightness, p_base.cumulative_tightness - 1e-9);
}

TEST(Allocator, SharedPartitionOverloadAgreesWithConvenienceOverload) {
  const auto instance = hydra::gen::uav_case_study(2);
  const auto partition = hydra::rt::partition_rt_tasks(instance.rt_tasks, 2);
  ASSERT_TRUE(partition.has_value());
  const auto scheme = core::AllocatorRegistry::global().make("hydra");
  const auto direct = scheme->allocate(instance);
  const auto pinned = scheme->allocate(instance, *partition);
  ASSERT_TRUE(direct.feasible);
  ASSERT_TRUE(pinned.feasible);
  EXPECT_DOUBLE_EQ(direct.cumulative_tightness(instance.security_tasks),
                   pinned.cumulative_tightness(instance.security_tasks));
}
