#include "core/single_core.h"

#include <limits>

#include "core/period_adaptation.h"
#include "rt/interference.h"
#include "rt/priority.h"
#include "util/contracts.h"

namespace hydra::core {

Allocation SingleCoreAllocator::allocate(const Instance& instance) const {
  instance.validate();
  HYDRA_REQUIRE(instance.num_cores >= 2,
                "SingleCore needs at least two cores (one reserved for security)");

  // RT tasks go on cores 0..M−2.
  const std::size_t security_core = instance.num_cores - 1;
  const auto rt_partition_small =
      rt::partition_rt_tasks(instance.rt_tasks, instance.num_cores - 1);
  if (!rt_partition_small.has_value()) {
    return infeasible_allocation(std::numeric_limits<std::size_t>::max(),
                                 "RT tasks cannot be partitioned on M-1 cores");
  }

  // Re-express the partition over all M cores (core M−1 stays empty of RT).
  rt::Partition rt_partition;
  rt_partition.num_cores = instance.num_cores;
  rt_partition.core_of = rt_partition_small->core_of;

  Allocation result;
  result.rt_partition = rt_partition;
  result.placements.assign(instance.security_tasks.size(), TaskPlacement{});

  // Sequential period adaptation on the dedicated core, priority order.
  // No RT interference there — only the higher-priority security tasks.
  // Eq. (5) sums over the placed monitors, extended per commit in the same
  // order a per-task rebuild would accumulate them (bitwise identical).
  rt::InterferenceBound interferers = rt::interference_bound({}, {});
  const auto order = rt::security_priority_order(instance.security_tasks);
  for (const std::size_t s : order) {
    const rt::SecurityTask& task = instance.security_tasks[s];
    const PeriodAdaptation pa = adapt_period(task, interferers);
    if (!pa.feasible) {
      return infeasible_allocation(
          s, "dedicated core admits no acceptable period for '" + task.name + "'");
    }
    result.placements[s] = TaskPlacement{security_core, pa.period, pa.tightness};
    interferers.add_interferer(task.wcet, pa.period);
  }
  result.feasible = true;
  return result;
}

Allocation SingleCoreAllocator::allocate(const Instance& instance,
                                         const rt::Partition& /*rt_partition*/) const {
  // The dedicated-core policy fixes the partition shape itself (see header).
  return allocate(instance);
}

std::string SingleCoreAllocator::describe() const {
  return "dedicated security core (RT on M-1 cores, security on core M-1); "
         "closed-form subproblem";
}

}  // namespace hydra::core
