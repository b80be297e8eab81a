// Tests for workload generation: Randfixedsum guarantees, §IV-B synthetic
// instances, and the UAV case study.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "gen/randfixedsum.h"
#include "gen/synthetic.h"
#include "gen/uav.h"
#include "rt/analysis.h"

namespace gen = hydra::gen;
namespace rt = hydra::rt;

TEST(Randfixedsum, SingleValue) {
  hydra::util::Xoshiro256 rng(1);
  const auto v = gen::randfixedsum(1, 0.7, 0.0, 1.0, rng);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 0.7);
}

TEST(Randfixedsum, RejectsUnreachableSum) {
  hydra::util::Xoshiro256 rng(1);
  EXPECT_THROW(gen::randfixedsum(3, 4.0, 0.0, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(gen::randfixedsum(3, -0.5, 0.0, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(gen::randfixedsum(3, 1.0, 1.0, 0.5, rng), std::invalid_argument);
}

// Property sweep over (n, sum): every draw sums exactly and stays in bounds.
struct RfsCase {
  std::size_t n;
  double sum;
};

class RandfixedsumProperty : public ::testing::TestWithParam<RfsCase> {};

TEST_P(RandfixedsumProperty, SumAndBoundsHold) {
  hydra::util::Xoshiro256 rng(GetParam().n * 1000 + 7);
  for (int rep = 0; rep < 200; ++rep) {
    const auto v = gen::randfixedsum(GetParam().n, GetParam().sum, 0.0, 1.0, rng);
    ASSERT_EQ(v.size(), GetParam().n);
    double sum = 0.0;
    for (const double x : v) {
      EXPECT_GE(x, -1e-12);
      EXPECT_LE(x, 1.0 + 1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, GetParam().sum, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, RandfixedsumProperty,
                         ::testing::Values(RfsCase{2, 0.3}, RfsCase{2, 1.7}, RfsCase{5, 0.1},
                                           RfsCase{5, 2.5}, RfsCase{5, 4.9}, RfsCase{10, 3.0},
                                           RfsCase{20, 0.5}, RfsCase{40, 20.0}));

TEST(Randfixedsum, ComponentsAreExchangeable) {
  // After shuffling, each coordinate should have (approximately) the same
  // mean — a symmetry check on the distribution.
  hydra::util::Xoshiro256 rng(77);
  const std::size_t n = 4;
  std::vector<double> mean(n, 0.0);
  const int reps = 4000;
  for (int rep = 0; rep < reps; ++rep) {
    const auto v = gen::randfixedsum(n, 1.2, 0.0, 1.0, rng);
    for (std::size_t i = 0; i < n; ++i) mean[i] += v[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(mean[i] / reps, 1.2 / static_cast<double>(n), 0.02);
  }
}

TEST(Randfixedsum, CustomBounds) {
  hydra::util::Xoshiro256 rng(5);
  const auto v = gen::randfixedsum(4, 2.0, 0.2, 0.8, rng);
  double sum = 0.0;
  for (const double x : v) {
    EXPECT_GE(x, 0.2 - 1e-12);
    EXPECT_LE(x, 0.8 + 1e-12);
    sum += x;
  }
  EXPECT_NEAR(sum, 2.0, 1e-9);
}

TEST(Synthetic, RespectsSectionIvbRanges) {
  gen::SyntheticConfig config;
  config.num_cores = 2;
  hydra::util::Xoshiro256 rng(42);
  const auto drawn = gen::generate_instance(config, 1.0, rng);
  ASSERT_TRUE(drawn.has_value());
  const auto& inst = drawn->instance;

  EXPECT_GE(inst.rt_tasks.size(), 6u);    // 3M
  EXPECT_LE(inst.rt_tasks.size(), 20u);   // 10M
  EXPECT_GE(inst.security_tasks.size(), 4u);   // 2M
  EXPECT_LE(inst.security_tasks.size(), 10u);  // 5M

  for (const auto& t : inst.rt_tasks) {
    EXPECT_GE(t.period, 10.0);
    EXPECT_LE(t.period, 1000.0);
    EXPECT_DOUBLE_EQ(t.deadline, t.period);  // implicit deadlines
  }
  for (const auto& s : inst.security_tasks) {
    EXPECT_GE(s.period_des, 1000.0);
    EXPECT_LE(s.period_des, 3000.0);
    EXPECT_DOUBLE_EQ(s.period_max, 10.0 * s.period_des);
  }
}

TEST(Synthetic, UtilizationSplitIsThirtyPercent) {
  gen::SyntheticConfig config;
  config.num_cores = 4;
  hydra::util::Xoshiro256 rng(43);
  const auto drawn = gen::generate_instance(config, 2.6, rng);
  ASSERT_TRUE(drawn.has_value());
  EXPECT_NEAR(drawn->rt_utilization + drawn->sec_utilization, 2.6, 1e-6);
  EXPECT_NEAR(drawn->sec_utilization / drawn->rt_utilization, 0.3, 1e-6);
  // Cross-check against the task parameters themselves.
  EXPECT_NEAR(rt::total_utilization(drawn->instance.rt_tasks), drawn->rt_utilization, 1e-9);
  EXPECT_NEAR(rt::total_max_utilization(drawn->instance.security_tasks),
              drawn->sec_utilization, 1e-9);
}

TEST(Synthetic, ExtremeUtilizationReturnsNullopt) {
  gen::SyntheticConfig config;
  config.num_cores = 2;
  hydra::util::Xoshiro256 rng(44);
  // 25 > max tasks × cap: structurally impossible.
  EXPECT_FALSE(gen::generate_instance(config, 25.0, rng).has_value());
}

TEST(Synthetic, FilteredInstancePassesNecessaryCondition) {
  gen::SyntheticConfig config;
  config.num_cores = 2;
  hydra::util::Xoshiro256 rng(45);
  for (const double u : {0.5, 1.0, 1.5}) {
    const auto drawn = gen::generate_filtered_instance(config, u, rng);
    ASSERT_TRUE(drawn.has_value()) << "U = " << u;
    EXPECT_TRUE(gen::satisfies_necessary_condition(drawn->instance));
  }
}

TEST(Synthetic, DeterministicGivenSeed) {
  gen::SyntheticConfig config;
  config.num_cores = 2;
  hydra::util::Xoshiro256 rng_a(46), rng_b(46);
  const auto a = gen::generate_instance(config, 1.2, rng_a);
  const auto b = gen::generate_instance(config, 1.2, rng_b);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a->instance.rt_tasks.size(), b->instance.rt_tasks.size());
  for (std::size_t i = 0; i < a->instance.rt_tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->instance.rt_tasks[i].wcet, b->instance.rt_tasks[i].wcet);
    EXPECT_DOUBLE_EQ(a->instance.rt_tasks[i].period, b->instance.rt_tasks[i].period);
  }
}

TEST(Uav, SixValidControlTasks) {
  const auto tasks = gen::uav_taskset();
  ASSERT_EQ(tasks.size(), 6u);
  EXPECT_NO_THROW(rt::validate(tasks));
  // Representative mid-load avionics profile (docs/architecture.md,
  // "Substitutions and modelling choices", S6): U ≈ 0.6.
  EXPECT_NEAR(rt::total_utilization(tasks), 0.615, 0.01);
}

TEST(Uav, CaseStudyBundlesCatalog) {
  const auto inst = gen::uav_case_study(4);
  EXPECT_EQ(inst.num_cores, 4u);
  EXPECT_EQ(inst.rt_tasks.size(), 6u);
  EXPECT_EQ(inst.security_tasks.size(), 6u);
  EXPECT_NO_THROW(inst.validate());
}

TEST(Uav, ScheduleableOnOneCore) {
  // The whole control workload fits a single core under RM.
  EXPECT_TRUE(rt::core_schedulable_rm(rt::timings_of(gen::uav_taskset())));
}
