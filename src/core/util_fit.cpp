#include "core/util_fit.h"

#include <optional>

#include "core/period_adaptation.h"
#include "rt/interference.h"
#include "rt/priority.h"
#include "util/contracts.h"

namespace hydra::core {

Allocation UtilFitAllocator::allocate(const Instance& instance,
                                      const rt::Partition& rt_partition) const {
  instance.validate();
  HYDRA_REQUIRE(rt_partition.num_cores == instance.num_cores,
                "RT partition core count must match the instance");
  HYDRA_REQUIRE(rt_partition.core_of.size() == instance.rt_tasks.size(),
                "RT partition does not cover the RT task set");

  std::vector<std::vector<rt::RtTask>> rt_on_core(instance.num_cores);
  std::vector<std::vector<rt::PlacedSecurityTask>> placed(instance.num_cores);
  std::vector<double> sec_load(instance.num_cores, 0.0);  ///< Σ Cs/Ts committed
  for (std::size_t c = 0; c < instance.num_cores; ++c) {
    rt_on_core[c] = rt_partition.tasks_on_core(instance.rt_tasks, c);
  }

  Allocation result;
  result.rt_partition = rt_partition;
  result.placements.assign(instance.security_tasks.size(), TaskPlacement{});

  const auto order = rt::security_priority_order(instance.security_tasks);
  for (const std::size_t s : order) {
    const rt::SecurityTask& task = instance.security_tasks[s];

    // Solve Eq. (7) everywhere, then take the feasible core with the least
    // committed security utilization (ties go to the lowest index).
    std::optional<std::size_t> best_core;
    PeriodAdaptation best{};
    for (std::size_t c = 0; c < instance.num_cores; ++c) {
      const auto bound = rt::interference_bound(rt_on_core[c], placed[c]);
      const PeriodAdaptation candidate = adapt_period(task, bound);
      if (!candidate.feasible) continue;
      if (!best_core.has_value() || sec_load[c] < sec_load[*best_core]) {
        best_core = c;
        best = candidate;
      }
    }
    if (!best_core.has_value()) {
      return infeasible_allocation(
          s, "no core admits an acceptable period for security task '" + task.name + "'");
    }
    result.placements[s] = TaskPlacement{*best_core, best.period, best.tightness};
    placed[*best_core].push_back(rt::PlacedSecurityTask{task.wcet, best.period});
    sec_load[*best_core] += task.wcet / best.period;
  }

  result.feasible = true;
  return result;
}

Allocation UtilFitAllocator::allocate(const Instance& instance) const {
  return allocate_with_default_partition(instance);
}

std::string UtilFitAllocator::describe() const {
  return "utilization-aware worst-fit: least security-loaded feasible core "
         "(spread the monitors)";
}

}  // namespace hydra::core
