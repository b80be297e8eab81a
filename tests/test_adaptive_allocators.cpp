// Tests for the adaptive allocator families (contego, period-adapt,
// util/worst-fit):
// validation-contract conformance, period-mode monotonicity of the
// slack-aware tightening pass, and the hydra-dominates-period-adapt property
// over seeded synthetic batches.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/contego.h"
#include "core/mode_table.h"
#include "core/period_adapt.h"
#include "core/period_adaptation.h"
#include "core/registry.h"
#include "core/validation.h"
#include "exp/metrics.h"
#include "gen/synthetic.h"
#include "gen/uav.h"
#include "oracles/named_rt.h"
#include "rt/priority.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace gen = hydra::gen;

namespace {

const char* kNewSchemes[] = {"contego", "period-adapt", "period-adapt/gp", "util/worst-fit"};

/// Contego with the tightening pass switched off: minimum-mode placement
/// only.  Tightening never moves a monitor's core, so this is the min-mode
/// projection of Contego's result.  Requires a feasible Contego result.
core::Allocation contego_without_adaptation(const core::Instance& instance) {
  return core::min_mode_allocation(instance, core::ContegoAllocator().allocate(instance));
}

/// Seeded synthetic instances at one utilization: the deterministic batch the
/// property tests run over.
std::vector<core::Instance> seeded_batch(std::size_t count, double utilization,
                                         std::uint64_t seed, std::size_t cores = 2) {
  gen::SyntheticConfig config;
  config.num_cores = cores;
  std::vector<core::Instance> out;
  hydra::util::Xoshiro256 rng(seed);
  while (out.size() < count) {
    const auto drawn = gen::generate_filtered_instance(config, utilization, rng);
    if (drawn.has_value()) out.push_back(drawn->instance);
  }
  return out;
}

}  // namespace

TEST(AdaptiveFamilies, RegistryListsTheAdaptiveSchemes) {
  const auto& registry = core::AllocatorRegistry::global();
  for (const char* name : kNewSchemes) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_FALSE(registry.description(name).empty()) << name;
  }
  // The three paper schemes, hydra/exact-rta and the four adaptive ones.
  EXPECT_EQ(registry.names().size(), 8u);
}

TEST(AdaptiveFamilies, ValidationContractConformanceOnCaseStudyAndSynthetic) {
  // Every new scheme produces allocations that pass the INDEPENDENT validator
  // under its own declared contract — on the UAV case study and on a seeded
  // synthetic batch (where infeasible verdicts are legitimate, invalid
  // feasible ones are not).
  const auto& registry = core::AllocatorRegistry::global();
  std::vector<core::Instance> instances = {hydra::gen::uav_case_study(2),
                                           hydra::gen::uav_case_study(4)};
  for (const auto& extra : seeded_batch(10, 1.2, 99)) instances.push_back(extra);

  std::vector<std::unique_ptr<core::Allocator>> schemes;
  for (const char* name : kNewSchemes) schemes.push_back(registry.make(name));
  for (const auto& scheme : schemes) {
    const std::string name = scheme->name();
    EXPECT_EQ(scheme->schedule_test(), core::ScheduleTest::kLinearBound) << name;
    EXPECT_EQ(scheme->priority_order(), std::nullopt) << name;
    EXPECT_DOUBLE_EQ(scheme->search_space(instances.front()), 1.0) << name;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto point = core::evaluate_scheme(*scheme, instances[i]);
      if (!point.allocation.feasible) continue;
      EXPECT_TRUE(point.validated)
          << name << " instance " << i << ": " << point.validation_problem;
      EXPECT_GT(point.cumulative_tightness, 0.0) << name;
    }
  }
  // Minimum mode alone (Contego's placement before tightening) validates too.
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!core::ContegoAllocator().allocate(instances[i]).feasible) continue;
    const auto report =
        core::validate_allocation(instances[i], contego_without_adaptation(instances[i]));
    EXPECT_TRUE(report.valid) << "minimum mode, instance " << i << ": " << report.problem;
  }
}

TEST(AdaptiveFamilies, ContegoWithoutAdaptationLeavesEveryMonitorInMinimumMode) {
  const auto instance = hydra::gen::uav_case_study(2);
  const auto allocation = contego_without_adaptation(instance);
  const auto report = core::validate_allocation(instance, allocation);
  ASSERT_TRUE(report.valid) << report.problem;
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    EXPECT_DOUBLE_EQ(allocation.placements[s].period, instance.security_tasks[s].period_max);
  }
}

TEST(AdaptiveFamilies, ContegoPeriodsStayBetweenTheTwoModes) {
  const auto scheme = core::AllocatorRegistry::global().make("contego");
  for (const auto& instance : seeded_batch(15, 1.4, 7)) {
    const auto point = core::evaluate_scheme(*scheme, instance);
    if (!point.allocation.feasible) continue;
    for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
      const auto& task = instance.security_tasks[s];
      const auto& place = point.allocation.placements[s];
      EXPECT_GE(place.period, task.period_des - 1e-9) << task.name;
      EXPECT_LE(place.period, task.period_max + 1e-9) << task.name;
    }
  }
}

TEST(AdaptiveFamilies, ContegoAdaptationIsMonotoneInRounds) {
  // Period-mode monotonicity: adaptation never loosens a period, so the
  // cumulative tightness is non-decreasing from zero rounds through increasing
  // round counts, on every instance of a seeded batch.  The rounds run on
  // Contego's minimum-mode placement, core by core, and kAdaptationRounds of
  // them reproduce ContegoAllocator bit for bit.
  std::size_t compared = 0;
  for (const auto& instance : seeded_batch(15, 1.3, 21)) {
    const auto contego = core::ContegoAllocator().allocate(instance);
    if (!contego.feasible) continue;  // placement infeasible: nothing to compare
    ++compared;
    const auto min_mode = core::min_mode_allocation(instance, contego);
    const auto order = hydra::rt::security_priority_order(instance.security_tasks);
    double previous = -1.0;
    for (const std::size_t rounds : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
      auto adapted = min_mode;
      for (std::size_t c = 0; c < instance.num_cores; ++c) {
        std::vector<std::size_t> members;
        for (const std::size_t s : order) {
          if (adapted.placements[s].core == c) members.push_back(s);
        }
        core::tighten_core_placements(
            hydra::oracle::timings_on_core(instance.rt_tasks, adapted.rt_partition, c), members,
            instance.security_tasks, adapted.placements, rounds);
      }
      const auto report = core::validate_allocation(instance, adapted);
      ASSERT_TRUE(report.valid) << rounds << " rounds: " << report.problem;
      const double tightness = adapted.cumulative_tightness(instance.security_tasks);
      EXPECT_GE(tightness, previous - 1e-9) << "tightness regressed between rounds";
      previous = tightness;
      if (rounds != core::kAdaptationRounds) continue;
      for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
        EXPECT_EQ(adapted.placements[s].core, contego.placements[s].core);
        // Exact ==: positive finite doubles are equal iff their bits are.
        EXPECT_EQ(adapted.placements[s].period, contego.placements[s].period);
        EXPECT_EQ(adapted.placements[s].tightness, contego.placements[s].tightness);
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(AdaptiveFamilies, TightenCorePeriodsNeverLoosensAndStaysFeasible) {
  // Direct unit test of the shared pass: a loaded core where full tightening
  // to Tdes is impossible, so the lp-safety floor must engage.
  const std::vector<hydra::rt::RtTask> rt = {
      hydra::rt::make_rt_task("r1", 10.0, 40.0),   // U = 0.25
      hydra::rt::make_rt_task("r2", 30.0, 120.0),  // U = 0.25
  };
  std::vector<core::CommittedSecurityTask> tasks = {
      {hydra::rt::make_security_task("s1", 60.0, 500.0, 5000.0), 5000.0},
      {hydra::rt::make_security_task("s2", 80.0, 700.0, 7000.0), 7000.0},
      {hydra::rt::make_security_task("s3", 90.0, 900.0, 9000.0), 9000.0},
  };
  const auto before = tasks;
  core::tighten_core_periods(hydra::rt::timings_of(rt), tasks, 2);

  core::Instance instance;
  instance.num_cores = 1;
  instance.rt_tasks = rt;
  core::Allocation allocation;
  allocation.feasible = true;
  allocation.rt_partition.num_cores = 1;
  allocation.rt_partition.core_of.assign(rt.size(), 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_LE(tasks[i].period, before[i].period + 1e-9) << "loosened " << i;
    EXPECT_GE(tasks[i].period, tasks[i].task.period_des - 1e-9);
    instance.security_tasks.push_back(tasks[i].task);
    allocation.placements.push_back(core::TaskPlacement{
        0, tasks[i].period, tasks[i].task.period_des / tasks[i].period});
  }
  EXPECT_LT(tasks[0].period, before[0].period);  // something actually tightened
  const auto report = core::validate_allocation(instance, allocation);
  EXPECT_TRUE(report.valid) << report.problem;
}

TEST(AdaptiveFamilies, HydraDominatesPeriodAdaptOnTightnessOverSeededBatches) {
  // The ISSUE's headline property: placement freedom (hydra adapts WHERE and
  // WHEN) buys at least as much as period freedom alone (period-adapt's fixed
  // partition), instance by instance over seeded batches spanning low to high
  // utilization.
  const auto& registry = core::AllocatorRegistry::global();
  const auto hydra_scheme = registry.make("hydra");
  const auto pa_scheme = registry.make("period-adapt");
  std::size_t both_accepted = 0;
  for (const double utilization : {0.8, 1.2, 1.6}) {
    for (const auto& instance : seeded_batch(20, utilization, 42)) {
      const auto h = core::evaluate_scheme(*hydra_scheme, instance);
      const auto p = core::evaluate_scheme(*pa_scheme, instance);
      if (!h.allocation.feasible || !h.validated) continue;
      if (!p.allocation.feasible || !p.validated) continue;
      ++both_accepted;
      EXPECT_GE(h.cumulative_tightness, p.cumulative_tightness - 1e-9)
          << "u=" << utilization;
    }
  }
  EXPECT_GT(both_accepted, 30u);  // the property must have real coverage
}

TEST(AdaptiveFamilies, PeriodAdaptGpRefinementNeverHurts) {
  // The /gp variant keeps the better of (sequential, joint GP) on the same
  // fixed partition, so per instance it is at least as tight.
  const auto& registry = core::AllocatorRegistry::global();
  const auto seq = registry.make("period-adapt");
  const auto gp = registry.make("period-adapt/gp");
  std::size_t compared = 0;
  for (const auto& instance : seeded_batch(10, 1.2, 5)) {
    const auto s = core::evaluate_scheme(*seq, instance);
    const auto g = core::evaluate_scheme(*gp, instance);
    ASSERT_EQ(s.allocation.feasible, g.allocation.feasible);
    if (!s.allocation.feasible) continue;
    ++compared;
    EXPECT_GE(g.cumulative_tightness, s.cumulative_tightness - 1e-9);
    // Same fixed partition underneath.
    for (std::size_t t = 0; t < instance.security_tasks.size(); ++t) {
      EXPECT_EQ(g.allocation.placements[t].core, s.allocation.placements[t].core);
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(AdaptiveFamilies, UtilWorstFitSpreadsTheMonitors) {
  // On the M = 4 UAV case study worst-fit must put security work on more
  // than one core.
  const auto instance = hydra::gen::uav_case_study(4);
  const auto worst = core::evaluate_scheme(
      *core::AllocatorRegistry::global().make("util/worst-fit"), instance);
  ASSERT_TRUE(worst.allocation.feasible && worst.validated);
  std::size_t used = 0;
  for (std::size_t c = 0; c < instance.num_cores; ++c) {
    used += worst.allocation.security_on_core(c).empty() ? 0 : 1;
  }
  EXPECT_GT(used, 1u);
}

TEST(AdaptiveFamilies, PeriodModeMetricsPartitionTheTaskSet) {
  const auto instance = hydra::gen::uav_case_study(2);
  const auto metrics = hydra::exp::period_mode_metrics();
  ASSERT_EQ(metrics.size(), 3u);
  core::DesignPoint no_adapt;
  no_adapt.scheme = "contego without adaptation";
  no_adapt.allocation = contego_without_adaptation(instance);
  const auto& registry = core::AllocatorRegistry::global();
  for (const auto& point : {core::evaluate_scheme(*registry.make("contego"), instance),
                            no_adapt,
                            core::evaluate_scheme(*registry.make("hydra"), instance)}) {
    ASSERT_TRUE(point.allocation.feasible) << point.scheme;
    double total = 0.0;
    for (const auto& metric : metrics) total += metric.compute(instance, point);
    EXPECT_DOUBLE_EQ(total, static_cast<double>(instance.security_tasks.size()))
        << point.scheme;
  }
  // Without adaptation every monitor sits in minimum mode.
  EXPECT_DOUBLE_EQ(metrics[1].compute(instance, no_adapt),
                   static_cast<double>(instance.security_tasks.size()));
}
