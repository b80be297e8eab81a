// Tests for best-fit-decreasing RT partitioning: correctness invariants
// (every core RM-schedulable, all tasks placed), placement and tie-breaking,
// and failure cases.
#include <gtest/gtest.h>

#include "rt/analysis.h"
#include "rt/partition.h"
#include "util/rng.h"

namespace rt = hydra::rt;

namespace {

std::vector<rt::RtTask> uniform_tasks(int n, double util_each, double period) {
  std::vector<rt::RtTask> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back(rt::make_rt_task("t" + std::to_string(i), util_each * period, period));
  }
  return tasks;
}

}  // namespace

TEST(Partition, SingleTaskAndEqualLoadTiesGoToTheLowestCore) {
  // Best-fit prefers the most loaded feasible core; among equal loads the
  // lowest index wins.  The golden sweep rows depend on this choice.
  const auto one = uniform_tasks(1, 0.5, 10.0);
  const auto p1 = rt::partition_rt_tasks(one, 4);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->core_of[0], 0u);

  // Three 0.6 tasks on three cores: each new task fits only on an empty
  // core, and the empty cores tie at load 0, so they fill in index order.
  const auto three = uniform_tasks(3, 0.6, 10.0);
  const auto p3 = rt::partition_rt_tasks(three, 3);
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->core_of, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Partition, EveryCoreRemainsSchedulable) {
  hydra::util::Xoshiro256 rng(42);
  std::vector<rt::RtTask> tasks;
  for (int i = 0; i < 16; ++i) {
    const double period = rng.uniform(10.0, 200.0);
    tasks.push_back(
        rt::make_rt_task("t" + std::to_string(i), rng.uniform(0.05, 0.2) * period, period));
  }
  const auto p = rt::partition_rt_tasks(tasks, 4);
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->core_of.size(), tasks.size());
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(rt::core_schedulable_rm(p->tasks_on_core(tasks, c))) << "core " << c;
  }
}

TEST(Partition, BestFitPacksTightly) {
  // Two tasks of 0.3 plus one of 0.6 on two cores.  Best-fit (decreasing)
  // places big on core 0, then packs s1 next to it (core 0 is the most
  // loaded feasible core, 0.9 total); s2 no longer fits there and opens
  // core 1.
  std::vector<rt::RtTask> tasks{rt::make_rt_task("big", 6.0, 10.0),
                                rt::make_rt_task("s1", 3.0, 10.0),
                                rt::make_rt_task("s2", 3.0, 10.0)};
  const auto p = rt::partition_rt_tasks(tasks, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->core_of[0], p->core_of[1]);  // big + s1 share the packed core
  EXPECT_NE(p->core_of[2], p->core_of[0]);
  const auto util = p->core_utilizations(tasks);
  EXPECT_NEAR(util[p->core_of[0]], 0.9, 1e-12);
}

TEST(Partition, InfeasibleReturnsNullopt) {
  // Three tasks of 0.8 cannot fit on two cores.
  EXPECT_FALSE(rt::partition_rt_tasks(uniform_tasks(3, 0.8, 10.0), 2).has_value());
}

TEST(Partition, PlacesTasksInDecreasingUtilization) {
  // 2 cores, harmonic periods; tasks 0.35, 0.35, 0.6, 0.6 in that input
  // order.  Best-fit in input order would pack both 0.35s on core 0, put a
  // 0.6 on core 1 and find no room for the second 0.6.  Decreasing order
  // places the 0.6s first, one per core, and a 0.35 joins each (0.95).
  std::vector<rt::RtTask> tasks{
      rt::make_rt_task("s1", 3.5, 10.0), rt::make_rt_task("s2", 3.5, 10.0),
      rt::make_rt_task("b1", 6.0, 10.0), rt::make_rt_task("b2", 6.0, 10.0)};
  const auto p = rt::partition_rt_tasks(tasks, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->core_of, (std::vector<std::size_t>{0, 1, 0, 1}));
}

TEST(Partition, CoreUtilizationsSumToTotal) {
  hydra::util::Xoshiro256 rng(7);
  std::vector<rt::RtTask> tasks;
  double total = 0.0;
  for (int i = 0; i < 12; ++i) {
    const double period = rng.uniform(20.0, 100.0);
    const double u = rng.uniform(0.02, 0.12);
    total += u;
    tasks.push_back(rt::make_rt_task("t" + std::to_string(i), u * period, period));
  }
  const auto p = rt::partition_rt_tasks(tasks, 3);
  ASSERT_TRUE(p.has_value());
  const auto util = p->core_utilizations(tasks);
  double sum = 0.0;
  for (const double u : util) sum += u;
  EXPECT_NEAR(sum, total, 1e-9);
}

TEST(Partition, TasksOnCoreRoundTrips) {
  const auto tasks = uniform_tasks(6, 0.1, 30.0);
  const auto p = rt::partition_rt_tasks(tasks, 2);
  ASSERT_TRUE(p.has_value());
  std::size_t covered = 0;
  for (std::size_t c = 0; c < 2; ++c) covered += p->tasks_on_core(tasks, c).size();
  EXPECT_EQ(covered, tasks.size());
  EXPECT_THROW(p->tasks_on_core(tasks, 5), std::invalid_argument);
}

TEST(Partition, ZeroCoresRejected) {
  EXPECT_THROW(rt::partition_rt_tasks({}, 0), std::invalid_argument);
}

TEST(Partition, EmptyTaskSetTrivial) {
  const auto p = rt::partition_rt_tasks({}, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->core_of.empty());
}

// Property sweep: whenever a partition is returned, it is valid; whenever the
// total utilization is <= 50% of capacity with small tasks, it must succeed.
class PartitionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionProperty, LowLoadAlwaysPlaceable) {
  hydra::util::Xoshiro256 rng(GetParam());
  const std::size_t cores = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  std::vector<rt::RtTask> tasks;
  double budget = 0.5 * static_cast<double>(cores);
  int i = 0;
  while (budget > 0.05) {
    const double u = std::min(budget, rng.uniform(0.02, 0.2));
    const double period = rng.uniform(10.0, 1000.0);
    tasks.push_back(rt::make_rt_task("t" + std::to_string(i++), u * period, period));
    budget -= u;
  }
  const auto p = rt::partition_rt_tasks(tasks, cores);
  ASSERT_TRUE(p.has_value());
  for (std::size_t c = 0; c < cores; ++c) {
    EXPECT_TRUE(rt::core_schedulable_rm(p->tasks_on_core(tasks, c)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));
