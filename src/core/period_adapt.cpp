#include "core/period_adapt.h"

#include <optional>

#include "core/joint_period.h"
#include "core/period_adaptation.h"
#include "rt/interference.h"
#include "rt/priority.h"
#include "util/contracts.h"

namespace hydra::core {

Allocation PeriodAdaptAllocator::allocate(const Instance& instance,
                                          const rt::Partition& rt_partition) const {
  instance.validate();
  HYDRA_REQUIRE(rt_partition.num_cores == instance.num_cores,
                "RT partition core count must match the instance");
  HYDRA_REQUIRE(rt_partition.core_of.size() == instance.rt_tasks.size(),
                "RT partition does not cover the RT task set");

  std::vector<std::vector<rt::RtTask>> rt_on_core(instance.num_cores);
  std::vector<std::vector<std::size_t>> members(instance.num_cores);
  // Per-core Eq. (5) sums, grown per commit (same accumulation order as a
  // per-probe rebuild, hence bitwise identical).
  std::vector<rt::InterferenceBound> interferers(instance.num_cores);
  for (std::size_t c = 0; c < instance.num_cores; ++c) {
    rt_on_core[c] = rt_partition.tasks_on_core(instance.rt_tasks, c);
    interferers[c] = rt::interference_bound(rt_on_core[c], {});
  }

  Allocation result;
  result.rt_partition = rt_partition;
  result.placements.assign(instance.security_tasks.size(), TaskPlacement{});

  // Fixed partition: first-fit at minimum mode, blind to tightness.
  const auto order = rt::security_priority_order(instance.security_tasks);
  for (const std::size_t s : order) {
    const rt::SecurityTask& task = instance.security_tasks[s];
    std::optional<std::size_t> chosen;
    for (std::size_t c = 0; c < instance.num_cores && !chosen.has_value(); ++c) {
      if (adapt_period(task, interferers[c]).feasible) chosen = c;
    }
    if (!chosen.has_value()) {
      return infeasible_allocation(
          s, "no core admits security task '" + task.name + "' at its loosest period");
    }
    result.placements[s] = TaskPlacement{*chosen, task.period_max, task.min_tightness()};
    interferers[*chosen].add_interferer(task.wcet, task.period_max);
    members[*chosen].push_back(s);
  }

  // Per-core period optimization over the now-fixed assignment.
  for (std::size_t c = 0; c < instance.num_cores; ++c) {
    tighten_core_placements(rt_on_core[c], members[c], instance.security_tasks,
                            result.placements, options_.adaptation_rounds);
  }
  result.feasible = true;

  if (options_.joint_gp && !instance.security_tasks.empty()) {
    std::vector<std::size_t> core_of(instance.security_tasks.size());
    for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
      core_of[s] = result.placements[s].core;
    }
    JointPeriodOptions jopts;
    jopts.objective = JointObjective::kSignomialScp;
    const JointPeriodResult joint =
        optimize_joint_periods(instance, rt_partition, core_of, jopts);
    if (joint.feasible &&
        joint.cumulative_tightness > result.cumulative_tightness(instance.security_tasks)) {
      for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
        result.placements[s].period = joint.periods[s];
        result.placements[s].tightness =
            instance.security_tasks[s].period_des / joint.periods[s];
      }
    }
  }
  return result;
}

Allocation PeriodAdaptAllocator::allocate(const Instance& instance) const {
  return allocate_with_default_partition(instance);
}

std::string PeriodAdaptAllocator::describe() const {
  std::string text =
      "period-adaptation-only baseline: fixed first-fit partition at Tmax, "
      "per-core slack-aware tightening";
  if (options_.joint_gp) text += "; joint GP (signomial SCP) refinement";
  return text;
}

}  // namespace hydra::core
