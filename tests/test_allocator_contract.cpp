// Registry-wide allocator contract checks cheap enough for the fast set.
//
// A pinned RT partition must cover every RT task and name only existing
// cores: every scheme that honours the hint rejects a malformed one, and the
// independent validator refuses an allocation that carries one.
//
// The placement pin hashes what every registered scheme commits on the
// committed corpus and on a small seeded M = 2 batch: each allocation's
// `feasible` flag and `failed_task`, and each placement's core and the bits
// of its period.  A refactor of the allocators must leave the hash alone; a
// change that moves GP numerics on purpose re-records it and says why.
//
// The RT partition memo: one sweep unit of hydra, single-core and contego
// computes two partitions (M and M − 1 cores), and every scheme's design
// point with a warm memo equals the one a memo-cold thread computes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/allocator.h"
#include "core/joint_period.h"
#include "core/registry.h"
#include "exp/batch.h"
#include "exp/sweep.h"
#include "gen/synthetic.h"
#include "gen/uav.h"
#include "io/taskset_io.h"
#include "util/rng.h"
#include "util/units.h"

namespace core = hydra::core;

namespace {

/// Exhaustive schemes run only where M^NS <= 64, which keeps `optimal` in
/// the pin at a fast-suite cost.
constexpr std::size_t kPinSearchBudget = 64;

/// FNV-1a over the bytes fed in.
class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The committed corpus, then a seeded M = 2 batch over four utilizations.
std::vector<core::Instance> pin_instances() {
  std::vector<core::Instance> out;
  for (const auto& file :
       hydra::exp::expand_workload_files(std::string(HYDRA_SOURCE_DIR) + "/tests/corpus")) {
    out.push_back(hydra::io::load_instance(file));
  }
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  hydra::util::Xoshiro256 rng(20260419);
  for (const double utilization : {0.6, 1.0, 1.4, 1.8}) {
    for (int drawn = 0; drawn < 4;) {
      if (const auto instance =
              hydra::gen::generate_filtered_instance(config, utilization, rng)) {
        out.push_back(instance->instance);
        ++drawn;
      }
    }
  }
  return out;
}

/// Every field of two design points equal, doubles bit for bit.
bool same_design_point(const core::DesignPoint& a, const core::DesignPoint& b) {
  const auto& x = a.allocation;
  const auto& y = b.allocation;
  if (a.scheme != b.scheme || x.feasible != y.feasible || x.failed_task != y.failed_task ||
      x.failure_reason != y.failure_reason || x.placements.size() != y.placements.size() ||
      x.rt_partition.num_cores != y.rt_partition.num_cores ||
      x.rt_partition.core_of != y.rt_partition.core_of ||
      !hydra::util::same_bits(a.cumulative_tightness, b.cumulative_tightness) ||
      !hydra::util::same_bits(a.normalized_tightness, b.normalized_tightness) ||
      a.validated != b.validated || a.validation_problem != b.validation_problem) {
    return false;
  }
  for (std::size_t s = 0; s < x.placements.size(); ++s) {
    if (x.placements[s].core != y.placements[s].core ||
        !hydra::util::same_bits(x.placements[s].period, y.placements[s].period) ||
        !hydra::util::same_bits(x.placements[s].tightness, y.placements[s].tightness)) {
      return false;
    }
  }
  return true;
}

}  // namespace

TEST(PlacementPin, EveryRegisteredSchemeCommitsThePinnedPlacements) {
  const auto& registry = core::AllocatorRegistry::global();
  const auto instances = pin_instances();
  Fnv1a hash;
  for (const auto& name : registry.names()) {
    const auto scheme = registry.make(name);
    for (const auto& instance : instances) {
      if (core::over_search_budget(*scheme, instance, kPinSearchBudget)) {
        hash.add(std::uint64_t{2});  // skipped, as the batch drivers do
        continue;
      }
      const auto allocation = scheme->allocate(instance);
      hash.add(std::uint64_t{allocation.feasible});
      hash.add(static_cast<std::uint64_t>(allocation.failed_task));
      for (const auto& place : allocation.placements) {
        hash.add(static_cast<std::uint64_t>(place.core));
        hash.add(place.period);
      }
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash.value()));
  EXPECT_EQ(std::string(hex), "76b3377efd0d0c42")
      << "allocator placements moved; re-record only for an intended change";
}

TEST(MalformedPartition, EverySchemeThatHonoursTheHintRejectsIt) {
  const auto instance = hydra::gen::uav_case_study(2);
  const auto partition = hydra::rt::partition_rt_tasks(instance.rt_tasks, 2);
  ASSERT_TRUE(partition.has_value());
  auto too_short = *partition;
  too_short.core_of.pop_back();
  auto missing_core = *partition;
  missing_core.core_of.front() = instance.num_cores;

  const auto& registry = core::AllocatorRegistry::global();
  for (const auto& name : registry.names()) {
    if (name == "single-core") continue;  // documented: re-partitions, ignores the hint
    const auto scheme = registry.make(name);
    EXPECT_THROW(scheme->allocate(instance, too_short), std::invalid_argument) << name;
    EXPECT_THROW(scheme->allocate(instance, missing_core), std::invalid_argument) << name;
  }

  const std::vector<std::size_t> core_of(instance.security_tasks.size(), 0);
  EXPECT_THROW(core::joint_tightness_bound(instance, missing_core, core_of),
               std::invalid_argument);
  EXPECT_THROW(core::make_joint_period_gp(instance, missing_core, core_of),
               std::invalid_argument);
  EXPECT_THROW(core::optimize_joint_periods(instance, missing_core, core_of),
               std::invalid_argument);
}

TEST(MalformedPartition, ValidatorRejectsAnRtTaskOnAMissingCore) {
  const auto instance = hydra::gen::uav_case_study(2);
  auto allocation = core::AllocatorRegistry::global().make("hydra")->allocate(instance);
  ASSERT_TRUE(core::validate_allocation(instance, allocation).valid);
  allocation.rt_partition.core_of.front() = instance.num_cores;
  const auto report = core::validate_allocation(instance, allocation);
  EXPECT_FALSE(report.valid);
  EXPECT_EQ(report.problem, "RT partition shape mismatch");
}

TEST(PartitionMemo, OneSweepUnitPartitionsEachCoreCountOnce) {
  // Four seeded M = 4, U = 2.0 units of hydra, single-core and contego.
  // hydra partitions on M cores, single-core on M − 1, and contego reuses
  // hydra's answer: two partitions per unit, not three.
  hydra::gen::SyntheticConfig config;
  config.num_cores = 4;
  hydra::util::Xoshiro256 rng(30);
  hydra::exp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core", "contego"};
  while (spec.points.size() < 4) {
    if (auto drawn = hydra::gen::generate_filtered_instance(config, 2.0, rng)) {
      hydra::exp::SweepPoint point;
      point.instance = std::move(drawn->instance);
      spec.points.push_back(std::move(point));
    }
  }
  const std::size_t units = spec.points.size();
  const hydra::exp::Sweep sweep(std::move(spec));

  // jobs = 1 runs the units on the calling thread, whose counter is read.
  std::size_t computed = 0;
  std::size_t evaluated = 0;
  std::thread([&] {
    evaluated = sweep.run().evaluated;
    computed = hydra::rt::partitions_computed();
  }).join();
  EXPECT_EQ(evaluated, 3 * units);
  EXPECT_EQ(computed, 2 * units);
}

TEST(PartitionMemo, WarmMemoDesignPointsEqualMemoColdOnes) {
  // Warm: every scheme in registry order on one thread, so each scheme after
  // the first that partitions on the same core count reads the memo.  Cold:
  // the same evaluation alone on a new thread.
  const auto& registry = core::AllocatorRegistry::global();
  std::size_t compared = 0;
  for (const auto& instance : pin_instances()) {
    for (const auto& name : registry.names()) {
      const auto scheme = registry.make(name);
      if (core::over_search_budget(*scheme, instance, kPinSearchBudget)) continue;
      const auto warm = core::evaluate_scheme(*scheme, instance);
      core::DesignPoint cold;
      std::thread([&] { cold = core::evaluate_scheme(*scheme, instance); }).join();
      EXPECT_TRUE(same_design_point(warm, cold)) << name << " on a " << instance.num_cores
                                                  << "-core instance";
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}
