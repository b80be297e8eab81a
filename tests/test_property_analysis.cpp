// Randomized property tests for the analysis core (≥1000 seeds each):
//   * exact RTA response time is monotone in added interference — extending
//     the higher-priority set never shrinks a response time, and can never
//     turn an unschedulable task schedulable;
//   * the acceptance ratio of every scheme is non-increasing in total
//     utilization;
//   * HYDRA never accepts an allocation the independent validator
//     (core::validate_allocation) rejects — the allocator and the checker
//     deliberately share no code, so this is a real cross-implementation
//     oracle, not a tautology.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/hydra.h"
#include "core/registry.h"
#include "core/validation.h"
#include "gen/synthetic.h"
#include "rt/analysis.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace rt = hydra::rt;

namespace {

rt::RtTask random_task(hydra::util::Xoshiro256& rng, const std::string& name) {
  const double period = rng.uniform(10.0, 1000.0);
  // WCET up to 40% of the period keeps single-task sets schedulable so the
  // monotonicity property is exercised on both defined and undefined RTAs.
  const double wcet = rng.uniform(0.5, 0.4 * period);
  return rt::make_rt_task(name, wcet, period);
}

}  // namespace

TEST(PropertyRta, ResponseTimeMonotoneInAddedInterference) {
  std::size_t defined_pairs = 0;
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    hydra::util::Xoshiro256 rng(seed);
    const auto task = random_task(rng, "task");
    std::vector<rt::RtTask> hp;
    const auto n_hp = static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t i = 0; i < n_hp; ++i) {
      hp.push_back(random_task(rng, "hp" + std::to_string(i)));
    }

    const auto base = rt::response_time(task, hp);
    hp.push_back(random_task(rng, "extra"));
    const auto extended = rt::response_time(task, hp);

    if (extended.has_value()) {
      // Adding interference can only be observed if the base was schedulable
      // too, and never with a smaller response time.
      ASSERT_TRUE(base.has_value()) << "seed " << seed;
      EXPECT_LE(*base, *extended + 1e-9) << "seed " << seed;
      EXPECT_GE(*base, task.wcet) << "seed " << seed;
      ++defined_pairs;
    }
    // base == nullopt && extended != nullopt is the violation; covered above.
  }
  // The generator parameters must actually exercise the defined branch.
  EXPECT_GT(defined_pairs, 300u);
}

TEST(PropertyAcceptance, RatioNonIncreasingInTotalUtilization) {
  // Acceptance over the same seed ladder at increasing utilization: with the
  // per-index seeds fixed, the measured ratios are deterministic, so the
  // monotone trend is a hard assertion, not a statistical one.
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  // Tighter than the paper defaults (Tmax only 1.2·Tdes, security at 50% of
  // the RT load): with 10× period slack HYDRA accepts essentially everything
  // below U = M and the property would be tested only at the trivial 1.0
  // plateau.  This regime drives acceptance from 1.0 down to 0.
  config.sec_period_max_factor = 1.2;
  config.sec_util_ratio = 0.5;
  const std::vector<double> utilizations = {0.6, 1.0, 1.4, 1.7, 1.9};
  const std::size_t instances = 80;

  for (const auto& scheme_name : {"hydra", "single-core"}) {
    const auto scheme = core::AllocatorRegistry::global().make(scheme_name);
    double previous_ratio = 1.1;
    for (const double u : utilizations) {
      std::size_t accepted = 0, total = 0;
      for (std::size_t i = 0; i < instances; ++i) {
        hydra::util::Xoshiro256 rng(1000 + i);
        const auto drawn = hydra::gen::generate_filtered_instance(config, u, rng);
        ++total;
        if (!drawn.has_value()) continue;  // Eq. (1) rejection = not accepted
        const auto allocation = scheme->allocate(drawn->instance);
        if (allocation.feasible) ++accepted;
      }
      const double ratio = static_cast<double>(accepted) / static_cast<double>(total);
      // Tiny slack only for draw-level noise: the same seed index draws a
      // different concrete instance at a different utilization target.
      EXPECT_LE(ratio, previous_ratio + 0.05)
          << scheme_name << " at utilization " << u;
      previous_ratio = ratio;
    }
    // The ladder must span the interesting range: full acceptance at the
    // bottom, degradation by the top.
    EXPECT_LT(previous_ratio, 1.0) << scheme_name;
  }
}

TEST(PropertyHydra, NeverAcceptsWhatTheValidatorRejects) {
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;
  config.max_sec_per_core = 2;
  const auto hydra_scheme = core::AllocatorRegistry::global().make("hydra");

  std::size_t feasible = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    hydra::util::Xoshiro256 rng(seed);
    const double u = 0.4 + 1.5 * rng.uniform01();  // spans easy to hopeless
    const auto drawn = hydra::gen::generate_filtered_instance(config, u, rng, 8);
    if (!drawn.has_value()) continue;
    const auto allocation = hydra_scheme->allocate(drawn->instance);
    if (!allocation.feasible) continue;
    ++feasible;
    const auto report =
        core::validate_allocation(drawn->instance, allocation, hydra_scheme->priority_order(),
                                  hydra_scheme->schedule_test());
    ASSERT_TRUE(report.valid) << "seed " << seed << " utilization " << u << ": "
                              << report.problem;
  }
  // The property is vacuous unless a healthy share of draws is accepted.
  EXPECT_GT(feasible, 200u);
}

TEST(PropertyHydra, ExactRtaVariantAlsoValidates) {
  // Same oracle for the exact-RTA ablation, whose tighter periods are the
  // riskier case for an allocator/validator divergence.
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;
  config.max_sec_per_core = 2;
  const auto scheme = core::AllocatorRegistry::global().make("hydra/exact-rta");

  std::size_t feasible = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    hydra::util::Xoshiro256 rng(seed * 31 + 7);
    const double u = 0.4 + 1.5 * rng.uniform01();
    const auto drawn = hydra::gen::generate_filtered_instance(config, u, rng, 8);
    if (!drawn.has_value()) continue;
    const auto allocation = scheme->allocate(drawn->instance);
    if (!allocation.feasible) continue;
    ++feasible;
    const auto report =
        core::validate_allocation(drawn->instance, allocation, scheme->priority_order(),
                                  scheme->schedule_test());
    ASSERT_TRUE(report.valid) << "seed " << seed << ": " << report.problem;
  }
  EXPECT_GT(feasible, 50u);
}
