#include "core/contego.h"

#include <optional>

#include "core/period_adaptation.h"
#include "rt/interference.h"
#include "rt/priority.h"
#include "util/contracts.h"

namespace hydra::core {

namespace {

/// Per-core bookkeeping for the minimum-mode placement pass.
struct CoreState {
  std::vector<rt::RtTask> rt_tasks;
  std::vector<std::size_t> members;               ///< security indices, priority order
  double utilization = 0.0;                       ///< RT + security-at-Tmax demand
  rt::InterferenceBound interferers;              ///< Eq. (5) sums, grown per commit
};

}  // namespace

Allocation ContegoAllocator::allocate(const Instance& instance,
                                      const rt::Partition& rt_partition) const {
  instance.validate();
  HYDRA_REQUIRE(rt_partition.num_cores == instance.num_cores,
                "RT partition core count must match the instance");
  HYDRA_REQUIRE(rt_partition.core_of.size() == instance.rt_tasks.size(),
                "RT partition does not cover the RT task set");

  std::vector<CoreState> cores(instance.num_cores);
  for (std::size_t c = 0; c < instance.num_cores; ++c) {
    cores[c].rt_tasks = rt_partition.tasks_on_core(instance.rt_tasks, c);
    for (const auto& t : cores[c].rt_tasks) cores[c].utilization += t.utilization();
    cores[c].interferers = rt::interference_bound(cores[c].rt_tasks, {});
  }

  Allocation result;
  result.rt_partition = rt_partition;
  result.placements.assign(instance.security_tasks.size(), TaskPlacement{});

  // Pass 1: admit every monitor in minimum mode (period Tmax), worst-fit by
  // total utilization so each core keeps the most residual slack.
  const auto order = rt::security_priority_order(instance.security_tasks);
  for (const std::size_t s : order) {
    const rt::SecurityTask& task = instance.security_tasks[s];
    std::optional<std::size_t> best_core;
    for (std::size_t c = 0; c < instance.num_cores; ++c) {
      if (!adapt_period(task, cores[c].interferers).feasible) continue;
      if (!best_core.has_value() ||
          cores[c].utilization < cores[*best_core].utilization) {
        best_core = c;
      }
    }
    if (!best_core.has_value()) {
      return infeasible_allocation(
          s, "no core admits security task '" + task.name + "' even in minimum mode");
    }
    result.placements[s] =
        TaskPlacement{*best_core, task.period_max, task.min_tightness()};
    cores[*best_core].interferers.add_interferer(task.wcet, task.period_max);
    cores[*best_core].members.push_back(s);
    cores[*best_core].utilization += task.wcet / task.period_max;
  }

  // Pass 2: opportunistic tightening toward best mode, core by core.
  for (auto& core : cores) {
    tighten_core_placements(core.rt_tasks, core.members, instance.security_tasks,
                            result.placements, options_.adaptation_rounds);
  }

  result.feasible = true;
  return result;
}

Allocation ContegoAllocator::allocate(const Instance& instance) const {
  return allocate_with_default_partition(instance);
}

std::string ContegoAllocator::describe() const {
  std::string text =
      "Contego-style adaptive allocation: minimum-mode (Tmax) worst-fit placement";
  text += "; slack-aware opportunistic tightening (" +
          std::to_string(options_.adaptation_rounds) + " round" +
          (options_.adaptation_rounds == 1 ? "" : "s") + ")";
  return text;
}

}  // namespace hydra::core
