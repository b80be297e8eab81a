#include "core/period_adapt.h"

#include <optional>

#include "core/joint_period.h"
#include "core/period_adaptation.h"
#include "rt/priority.h"

namespace hydra::core {

Allocation PeriodAdaptAllocator::allocate(const Instance& instance,
                                          const rt::Partition& rt_partition) const {
  CoreLedger ledger(instance, rt_partition);

  // Fixed partition: first-fit at minimum mode, blind to tightness.
  const auto order = rt::security_priority_order(instance.security_tasks);
  for (const std::size_t s : order) {
    const rt::SecurityTask& task = instance.security_tasks[s];
    std::optional<std::size_t> chosen;
    for (std::size_t c = 0; c < instance.num_cores && !chosen.has_value(); ++c) {
      if (adapt_period(task, ledger.core(c).interferers).feasible) chosen = c;
    }
    if (!chosen.has_value()) {
      return infeasible_allocation(
          s, "no core admits security task '" + task.name + "' at its loosest period");
    }
    ledger.commit(s, *chosen, task.period_max);
  }

  // Per-core period optimization over the now-fixed assignment.
  for (std::size_t c = 0; c < instance.num_cores; ++c) {
    tighten_core_placements(ledger.core(c).rt_tasks, ledger.core(c).members,
                            instance.security_tasks, ledger.allocation().placements,
                            kAdaptationRounds);
  }
  Allocation result = std::move(ledger).finish();

  if (options_.joint_gp && !instance.security_tasks.empty()) {
    std::vector<std::size_t> core_of(instance.security_tasks.size());
    for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
      core_of[s] = result.placements[s].core;
    }
    const JointPeriodResult joint = optimize_joint_periods(instance, rt_partition, core_of);
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

std::string PeriodAdaptAllocator::describe() const {
  std::string text =
      "period-adaptation-only baseline: fixed first-fit partition at Tmax, "
      "per-core slack-aware tightening";
  if (options_.joint_gp) text += "; joint GP (signomial SCP) refinement";
  return text;
}

}  // namespace hydra::core
