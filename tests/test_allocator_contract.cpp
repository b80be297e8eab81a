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
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/joint_period.h"
#include "core/registry.h"
#include "exp/batch.h"
#include "gen/synthetic.h"
#include "gen/uav.h"
#include "io/taskset_io.h"
#include "util/rng.h"

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
