#include "core/contego.h"

#include <optional>

#include "core/period_adaptation.h"
#include "rt/priority.h"

namespace hydra::core {

Allocation ContegoAllocator::allocate(const Instance& instance,
                                      const rt::Partition& rt_partition) const {
  CoreLedger ledger(instance, rt_partition);

  // Pass 1: admit every monitor in minimum mode (period Tmax), worst-fit by
  // total utilization so each core keeps the most residual slack.
  const auto order = rt::security_priority_order(instance.security_tasks);
  for (const std::size_t s : order) {
    const rt::SecurityTask& task = instance.security_tasks[s];
    std::optional<std::size_t> best_core;
    for (std::size_t c = 0; c < instance.num_cores; ++c) {
      if (!adapt_period(task, ledger.core(c).interferers).feasible) continue;
      if (!best_core.has_value() ||
          ledger.core(c).utilization() < ledger.core(*best_core).utilization()) {
        best_core = c;
      }
    }
    if (!best_core.has_value()) {
      return infeasible_allocation(
          s, "no core admits security task '" + task.name + "' even in minimum mode");
    }
    ledger.commit(s, *best_core, task.period_max);
  }

  // Pass 2: opportunistic tightening toward best mode, core by core.
  for (std::size_t c = 0; c < instance.num_cores; ++c) {
    tighten_core_placements(ledger.core(c).rt_tasks, ledger.core(c).members,
                            instance.security_tasks, ledger.allocation().placements,
                            kAdaptationRounds);
  }
  return std::move(ledger).finish();
}

std::string ContegoAllocator::describe() const {
  return "Contego-style adaptive allocation: minimum-mode (Tmax) worst-fit placement"
         "; slack-aware opportunistic tightening (" +
         std::to_string(kAdaptationRounds) + " rounds)";
}

}  // namespace hydra::core
