// Cross-module integration tests: the analysis ↔ simulation contract (the
// library's most important invariant) and reduced-scale versions of the
// Fig. 1/2/3 pipelines.
#include <gtest/gtest.h>

#include "core/hydra.h"
#include "core/optimal.h"
#include "core/single_core.h"
#include "core/validation.h"
#include "gen/synthetic.h"
#include "gen/uav.h"
#include "rt/analysis.h"
#include "rt/priority.h"
#include "sim/attack.h"
#include "sim/engine.h"
#include "stats/ecdf.h"
#include "stats/summary.h"

namespace core = hydra::core;
namespace gen = hydra::gen;
namespace sim = hydra::sim;
namespace rt = hydra::rt;

// ---------------------------------------------------------------------------
// Analysis ↔ simulation: any allocation the analysis declares feasible must
// run without a single deadline miss under synchronous periodic release (the
// worst-case sporadic pattern the response-time bound covers).
// ---------------------------------------------------------------------------

class AnalysisVsSimulation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalysisVsSimulation, FeasibleAllocationsNeverMissDeadlines) {
  hydra::util::Xoshiro256 rng(GetParam());
  gen::SyntheticConfig config;
  config.num_cores = 2;
  // Moderate utilization so a good share of draws is feasible.
  const double u = rng.uniform(0.4, 1.2);
  const auto drawn = gen::generate_filtered_instance(config, u, rng);
  if (!drawn.has_value()) GTEST_SKIP() << "no taskset at this utilization";

  const auto allocation = core::HydraAllocator().allocate(drawn->instance);
  if (!allocation.feasible) GTEST_SKIP() << "allocation infeasible";

  const auto tasks = sim::build_sim_tasks(drawn->instance, allocation);
  sim::SimOptions opts;
  opts.horizon = 60u * 1000u * hydra::util::kTicksPerMilli;  // 60 s
  const auto trace = sim::simulate(tasks, opts);
  EXPECT_EQ(trace.deadline_misses(), 0u)
      << "analysis said feasible but the schedule missed a deadline";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisVsSimulation,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(AnalysisVsSimulation, SingleCoreAllocationsAlsoHold) {
  for (const std::size_t m : {2u, 4u}) {
    const auto inst = gen::uav_case_study(m);
    const auto allocation = core::SingleCoreAllocator().allocate(inst);
    ASSERT_TRUE(allocation.feasible);
    sim::SimOptions opts;
    opts.horizon = 120u * 1000u * hydra::util::kTicksPerMilli;
    const auto trace = sim::simulate(sim::build_sim_tasks(inst, allocation), opts);
    EXPECT_EQ(trace.deadline_misses(), 0u) << "M = " << m;
  }
}

TEST(AnalysisVsSimulation, ObservedResponseTimesRespectAnalyticBounds) {
  // For every RT task, the simulator's worst observed response time must not
  // exceed the exact RTA bound; for every security task it must not exceed
  // the assigned period (its deadline) nor the exact security RTA bound.
  const auto inst = gen::uav_case_study(2);
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);

  const auto tasks = sim::build_sim_tasks(inst, allocation);
  sim::SimOptions opts;
  opts.horizon = 120u * 1000u * hydra::util::kTicksPerMilli;
  const auto trace = sim::simulate(tasks, opts);
  ASSERT_EQ(trace.deadline_misses(), 0u);

  // RT tasks: bound by exact RTA against same-core higher-priority RT tasks.
  const auto rt_order = rt::rm_priority_order(inst.rt_tasks);
  for (std::size_t pos = 0; pos < rt_order.size(); ++pos) {
    const std::size_t i = rt_order[pos];
    std::vector<rt::RtTask> hp;
    for (std::size_t q = 0; q < pos; ++q) {
      const std::size_t j = rt_order[q];
      if (allocation.rt_partition.core_of[j] == allocation.rt_partition.core_of[i]) {
        hp.push_back(inst.rt_tasks[j]);
      }
    }
    const auto bound = rt::response_time(inst.rt_tasks[i], hp);
    ASSERT_TRUE(bound.has_value());
    const auto observed = trace.max_response_time_ms(i);
    ASSERT_TRUE(observed.has_value());
    EXPECT_LE(*observed, *bound + 1e-3) << inst.rt_tasks[i].name;
  }

  // Security tasks: bound by the exact security RTA at the assigned period.
  const auto sec_rank = rt::rank_of(rt::security_priority_order(inst.security_tasks));
  for (std::size_t s = 0; s < inst.security_tasks.size(); ++s) {
    const auto& place = allocation.placements[s];
    std::vector<rt::RtTask> local_rt;
    for (std::size_t r = 0; r < inst.rt_tasks.size(); ++r) {
      if (allocation.rt_partition.core_of[r] == place.core) local_rt.push_back(inst.rt_tasks[r]);
    }
    std::vector<rt::PlacedSecurityTask> local_hp;
    for (std::size_t h = 0; h < inst.security_tasks.size(); ++h) {
      if (h != s && allocation.placements[h].core == place.core && sec_rank[h] < sec_rank[s]) {
        local_hp.push_back({inst.security_tasks[h].wcet, allocation.placements[h].period});
      }
    }
    const auto bound = rt::security_response_time(inst.security_tasks[s], place.period,
                                                  local_rt, local_hp);
    ASSERT_TRUE(bound.has_value()) << inst.security_tasks[s].name;
    const auto observed = trace.max_response_time_ms(inst.rt_tasks.size() + s);
    ASSERT_TRUE(observed.has_value());
    EXPECT_LE(*observed, *bound + 1e-3) << inst.security_tasks[s].name;
  }
}

// ---------------------------------------------------------------------------
// Reduced-scale figure pipelines.
// ---------------------------------------------------------------------------

TEST(Fig1Pipeline, HydraCdfDominatesSingleCore) {
  const auto inst = gen::uav_case_study(4);
  const auto hydra_alloc = core::HydraAllocator().allocate(inst);
  const auto single_alloc = core::SingleCoreAllocator().allocate(inst);
  ASSERT_TRUE(hydra_alloc.feasible);
  ASSERT_TRUE(single_alloc.feasible);

  sim::DetectionConfig config;
  config.horizon = 300u * 1000u * hydra::util::kTicksPerMilli;
  config.trials = 200;
  config.seed = 7;
  const auto hydra_res = sim::measure_detection_times(inst, hydra_alloc, config);
  const auto single_res = sim::measure_detection_times(inst, single_alloc, config);
  ASSERT_GT(hydra_res.detection_ms.size(), 50u);
  ASSERT_GT(single_res.detection_ms.size(), 50u);

  const hydra::stats::EmpiricalCdf hydra_cdf(hydra_res.detection_ms);
  const hydra::stats::EmpiricalCdf single_cdf(single_res.detection_ms);
  // Weak stochastic dominance sampled across the axis (allowing tiny noise).
  int wins = 0, losses = 0;
  for (double x = 0.0; x <= 50000.0; x += 1000.0) {
    if (hydra_cdf(x) >= single_cdf(x) - 0.02) ++wins; else ++losses;
  }
  EXPECT_GT(wins, 45);
  EXPECT_LT(losses, 6);
}

TEST(Fig2Pipeline, ImprovementNonNegativeAndGrowsAtHighUtilization) {
  gen::SyntheticConfig config;
  config.num_cores = 2;
  hydra::util::Xoshiro256 rng(2718);
  const core::HydraAllocator hydra_alloc;
  const core::SingleCoreAllocator single_alloc;

  const auto acceptance_at = [&](double u) {
    hydra::stats::AcceptanceCounter hydra_counter, single_counter;
    for (int rep = 0; rep < 40; ++rep) {
      const auto drawn = gen::generate_filtered_instance(config, u, rng);
      if (!drawn.has_value()) {
        hydra_counter.record(false);
        single_counter.record(false);
        continue;
      }
      hydra_counter.record(hydra_alloc.allocate(drawn->instance).feasible);
      single_counter.record(single_alloc.allocate(drawn->instance).feasible);
    }
    return std::pair<double, double>{hydra_counter.ratio(), single_counter.ratio()};
  };

  const auto low = acceptance_at(0.3);
  const auto high = acceptance_at(1.5);
  // Low utilization: both schemes accept essentially everything.
  EXPECT_GT(low.first, 0.9);
  EXPECT_GT(low.second, 0.9);
  // High utilization: HYDRA accepts at least as much as SingleCore, and the
  // SingleCore ratio collapses (RT alone exceeds one core).
  EXPECT_GE(high.first, high.second);
  EXPECT_LT(high.second, 0.3);
}

TEST(Fig3Pipeline, OptimalGapIsSmallAndNonNegative) {
  hydra::util::Xoshiro256 rng(3141);
  gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;  // keep NS in Fig. 3's [2, 6] range
  config.max_sec_per_core = 3;
  int compared = 0;
  for (int rep = 0; rep < 12 && compared < 5; ++rep) {
    const auto drawn = gen::generate_filtered_instance(config, rng.uniform(0.6, 1.4), rng);
    if (!drawn.has_value()) continue;
    if (drawn->instance.security_tasks.size() > 6) continue;
    const auto hydra_res = core::HydraAllocator().allocate(drawn->instance);
    if (!hydra_res.feasible) continue;
    const auto optimal_res =
        core::OptimalAllocator().allocate(drawn->instance, hydra_res.rt_partition);
    ASSERT_TRUE(optimal_res.feasible);
    const double eta_hydra = hydra_res.cumulative_tightness(drawn->instance.security_tasks);
    const double eta_opt = optimal_res.cumulative_tightness(drawn->instance.security_tasks);
    EXPECT_GE(eta_opt, eta_hydra - 1e-6);
    EXPECT_LE(hydra::stats::gap_percent(eta_opt, eta_hydra), 100.0);
    ++compared;
  }
  EXPECT_GT(compared, 0) << "no comparable instances drawn";
}

TEST(Validation, CatchesTamperedAllocations) {
  const auto inst = gen::uav_case_study(2);
  auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);

  auto tampered = allocation;
  tampered.placements[0].period = inst.security_tasks[0].period_des * 0.5;  // below Tdes
  EXPECT_FALSE(core::validate_allocation(inst, tampered).valid);

  tampered = allocation;
  tampered.placements[0].core = 99;
  EXPECT_FALSE(core::validate_allocation(inst, tampered).valid);

  tampered = allocation;
  tampered.placements[0].tightness = 0.123;  // inconsistent with period
  EXPECT_FALSE(core::validate_allocation(inst, tampered).valid);

  // Cram every security task onto one core at desired periods: Eq. (6) must
  // fail for the overloaded catalog.
  tampered = allocation;
  for (std::size_t s = 0; s < tampered.placements.size(); ++s) {
    tampered.placements[s].core = 0;
    tampered.placements[s].period = inst.security_tasks[s].period_des;
    tampered.placements[s].tightness = 1.0;
  }
  EXPECT_FALSE(core::validate_allocation(inst, tampered).valid);
}
