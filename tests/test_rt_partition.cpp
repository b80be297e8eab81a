// Tests for best-fit-decreasing RT partitioning: correctness invariants
// (every core RM-schedulable, all tasks placed), placement and tie-breaking,
// failure cases, and the per-thread memo in front of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exp/batch.h"
#include "exp/sweep.h"
#include "gen/synthetic.h"
#include "io/taskset_io.h"
#include "oracles/named_rt.h"
#include "rt/analysis.h"
#include "rt/partition.h"
#include "util/rng.h"

namespace oracle = hydra::oracle;
namespace rt = hydra::rt;

namespace {

std::vector<rt::RtTask> uniform_tasks(int n, double util_each, double period) {
  std::vector<rt::RtTask> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back(rt::make_rt_task("t" + std::to_string(i), util_each * period, period));
  }
  return tasks;
}

/// The partition a thread with an empty memo computes.
std::optional<rt::Partition> cold_partition(const std::vector<rt::RtTask>& tasks,
                                            std::size_t cores) {
  std::optional<rt::Partition> out;
  std::thread([&] { out = rt::partition_rt_tasks(tasks, cores); }).join();
  return out;
}

bool same_partition(const std::optional<rt::Partition>& a,
                    const std::optional<rt::Partition>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || (a->num_cores == b->num_cores && a->core_of == b->core_of);
}

/// A seeded mixed set: 10 tasks, total utilization about 1.5, some with
/// constrained deadlines, so every field reaches the admission test.
std::vector<rt::RtTask> memo_tasks() {
  hydra::util::Xoshiro256 rng(1711);
  std::vector<rt::RtTask> tasks;
  for (int i = 0; i < 10; ++i) {
    const double period = rng.uniform(10.0, 200.0);
    const double wcet = rng.uniform(0.05, 0.25) * period;
    const double deadline = i % 3 == 0 ? rng.uniform(wcet, period) : period;
    tasks.push_back(rt::RtTask{"t" + std::to_string(i), wcet, period, deadline});
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
    EXPECT_TRUE(rt::core_schedulable_rm(oracle::timings_on_core(tasks, *p, c))) << "core " << c;
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

TEST(Partition, EveryTaskLandsOnAnExistingCore) {
  const auto tasks = uniform_tasks(6, 0.1, 30.0);
  const auto p = rt::partition_rt_tasks(tasks, 2);
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->core_of.size(), tasks.size());
  for (const std::size_t c : p->core_of) EXPECT_LT(c, 2u);
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
    EXPECT_TRUE(rt::core_schedulable_rm(oracle::timings_on_core(tasks, *p, c)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// The (M−1)-core partition is a prefix of the M-core run: best-fit opens
// core M−1 only for a task that cores 0..M−2 all reject, and until then both
// runs make the same choices.  So the M−1-core answer is the M-core core_of
// when that leaves core M−1 empty, and nullopt otherwise.  A partitioner
// that derives single-core's partition from hydra's relies on this.
TEST(PartitionPrefix, FewerCoresGiveTheMCorePartitionOrNone) {
  std::vector<std::vector<rt::RtTask>> sets;
  std::vector<std::size_t> cores;
  for (const char* dir : {"/tests/corpus", "/tests/corpus_controller", "/tests/corpus_sim"}) {
    for (const auto& file :
         hydra::exp::expand_workload_files(std::string(HYDRA_SOURCE_DIR) + dir)) {
      const auto instance = hydra::io::load_instance(file);
      sets.push_back(instance.rt_tasks);
      cores.push_back(instance.num_cores);
    }
  }
  for (std::size_t m = 2; m <= 8; ++m) {
    hydra::gen::SyntheticConfig config;
    config.num_cores = m;
    hydra::util::Xoshiro256 rng(4400 + m);
    for (const double u : hydra::exp::utilization_axis(m)) {
      if (auto drawn = hydra::gen::generate_filtered_instance(config, u, rng)) {
        sets.push_back(drawn->instance.rt_tasks);
        cores.push_back(m);
      }
    }
  }

  std::size_t derived = 0;
  std::size_t none = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::size_t m = cores[i];
    if (m < 2) continue;
    const auto full = rt::partition_rt_tasks(sets[i], m);
    const auto fewer = rt::partition_rt_tasks(sets[i], m - 1);
    const bool last_core_empty =
        full.has_value() &&
        std::find(full->core_of.begin(), full->core_of.end(), m - 1) == full->core_of.end();
    if (last_core_empty) {
      ASSERT_TRUE(fewer.has_value()) << "set " << i << ", M = " << m;
      EXPECT_EQ(fewer->core_of, full->core_of) << "set " << i << ", M = " << m;
      ++derived;
    } else {
      EXPECT_FALSE(fewer.has_value()) << "set " << i << ", M = " << m;
      ++none;
    }
  }
  // Both branches are exercised.
  EXPECT_GT(derived, 20u);
  EXPECT_GT(none, 20u);
}

// ---------------------------------------------------------------------------
// The per-thread memo: a miss for every change of an input field, a hit for
// equal inputs, and the answer a memo-cold thread computes either way.

TEST(PartitionMemo, EveryInputFieldIsPartOfTheKey) {
  const auto base = memo_tasks();
  const std::size_t cores = 2;
  // (inputs, core count, what changed); each must miss the memo.
  std::vector<std::tuple<std::vector<rt::RtTask>, std::size_t, std::string>> cases;
  for (std::size_t i = 0; i < base.size(); ++i) {
    // One ulp in the direction that keeps 0 < C <= D <= T.
    auto wcet = base;
    wcet[i].wcet = std::nextafter(wcet[i].wcet, 0.0);
    cases.emplace_back(wcet, cores, "wcet of task " + std::to_string(i));
    auto period = base;
    period[i].period = std::nextafter(period[i].period, 1e9);
    cases.emplace_back(period, cores, "period of task " + std::to_string(i));
    auto deadline = base;
    deadline[i].deadline = std::nextafter(deadline[i].deadline, 0.0);
    cases.emplace_back(deadline, cores, "deadline of task " + std::to_string(i));
  }
  auto appended = base;
  appended.push_back(rt::make_rt_task("extra", 1.0, 50.0));
  cases.emplace_back(appended, cores, "an appended task");
  auto removed = base;
  removed.pop_back();
  cases.emplace_back(removed, cores, "a removed task");
  cases.emplace_back(base, cores + 1, "the core count");

  const auto cold_base = cold_partition(base, cores);
  for (const auto& [tasks, m, what] : cases) {
    // Prime the memo with the base set, then ask for the changed one.
    EXPECT_TRUE(same_partition(rt::partition_rt_tasks(base, cores), cold_base));
    const std::size_t before = rt::partitions_computed();
    const auto got = rt::partition_rt_tasks(tasks, m);
    EXPECT_EQ(rt::partitions_computed(), before + 1) << what << " did not miss the memo";
    EXPECT_TRUE(same_partition(got, cold_partition(tasks, m))) << what;
  }
}

TEST(PartitionMemo, EqualInputsHitAndNamesAreNotPartOfTheKey) {
  const auto tasks = memo_tasks();
  const auto first = rt::partition_rt_tasks(tasks, 2);
  const std::size_t before = rt::partitions_computed();

  // An equal copy and a renamed copy both hit.
  const auto copy = tasks;
  EXPECT_TRUE(same_partition(rt::partition_rt_tasks(copy, 2), first));
  auto renamed = tasks;
  for (auto& t : renamed) t.name += "-renamed";
  EXPECT_TRUE(same_partition(rt::partition_rt_tasks(renamed, 2), first));
  EXPECT_EQ(rt::partitions_computed(), before);
  EXPECT_TRUE(same_partition(first, cold_partition(tasks, 2)));
}

TEST(PartitionMemo, TwoEntriesKeepTheMCoreAnswerAcrossAnMMinusOneCall) {
  // hydra (M), single-core (M − 1), contego (M): the third call hits.  On
  // a thread of its own, so no earlier test's answers are in its memo.
  const auto tasks = memo_tasks();
  std::optional<rt::Partition> on_three, on_two, again;
  std::size_t computed = 0;
  std::thread([&] {
    on_three = rt::partition_rt_tasks(tasks, 3);
    on_two = rt::partition_rt_tasks(tasks, 2);
    again = rt::partition_rt_tasks(tasks, 3);
    computed = rt::partitions_computed();
  }).join();
  EXPECT_EQ(computed, 2u);
  EXPECT_TRUE(same_partition(again, on_three));
  EXPECT_TRUE(same_partition(on_three, cold_partition(tasks, 3)));
  EXPECT_TRUE(same_partition(on_two, cold_partition(tasks, 2)));
}

TEST(PartitionMemo, InfeasibleAnswersAreRememberedToo) {
  const auto tasks = uniform_tasks(3, 0.8, 10.0);
  EXPECT_FALSE(rt::partition_rt_tasks(tasks, 2).has_value());
  const std::size_t before = rt::partitions_computed();
  EXPECT_FALSE(rt::partition_rt_tasks(tasks, 2).has_value());
  EXPECT_EQ(rt::partitions_computed(), before);
}

TEST(PartitionMemo, AnInvalidSetStillThrowsItsNamedMessageAfterAValidOne) {
  const auto valid = memo_tasks();
  ASSERT_TRUE(rt::partition_rt_tasks(valid, 2).has_value());

  // Numerically different from the cached set: task 4's WCET exceeds its
  // deadline.
  auto invalid = valid;
  invalid[4].wcet = invalid[4].deadline * 2.0;
  for (int round = 0; round < 2; ++round) {  // the throw stored nothing
    const std::size_t before = rt::partitions_computed();
    try {
      (void)rt::partition_rt_tasks(invalid, 2);
      ADD_FAILURE() << "an invalid set was partitioned";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("RT task 't4'"), std::string::npos) << e.what();
    }
    EXPECT_EQ(rt::partitions_computed(), before);
  }
  // M = 0 throws before the memo is read, also for a cached set.
  EXPECT_THROW(rt::partition_rt_tasks(valid, 0), std::invalid_argument);
  const std::size_t before = rt::partitions_computed();
  EXPECT_TRUE(rt::partition_rt_tasks(valid, 2).has_value());
  EXPECT_EQ(rt::partitions_computed(), before) << "the valid set left the memo";
}

TEST(PartitionMemo, EachThreadCountsItsOwnMisses) {
  const auto tasks = memo_tasks();
  (void)rt::partition_rt_tasks(tasks, 2);
  const std::size_t here = rt::partitions_computed();
  std::size_t fresh_before = 1, fresh_after = 0;
  std::thread([&] {
    fresh_before = rt::partitions_computed();
    (void)rt::partition_rt_tasks(tasks, 2);
    fresh_after = rt::partitions_computed();
  }).join();
  EXPECT_EQ(fresh_before, 0u);
  EXPECT_EQ(fresh_after, 1u) << "a new thread starts with an empty memo";
  EXPECT_EQ(rt::partitions_computed(), here);
}
