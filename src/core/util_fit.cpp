#include "core/util_fit.h"

#include <optional>

#include "core/period_adaptation.h"
#include "rt/priority.h"

namespace hydra::core {

Allocation UtilFitAllocator::allocate(const Instance& instance,
                                      const rt::Partition& rt_partition) const {
  CoreLedger ledger(instance, rt_partition);
  const auto order = rt::security_priority_order(instance.security_tasks);
  for (const std::size_t s : order) {
    const rt::SecurityTask& task = instance.security_tasks[s];

    // Solve Eq. (7) everywhere, then take the feasible core with the least
    // committed security utilization (ties go to the lowest index).
    std::optional<std::size_t> best_core;
    PeriodAdaptation best{};
    for (std::size_t c = 0; c < instance.num_cores; ++c) {
      const PeriodAdaptation candidate = adapt_period(task, ledger.core(c).interferers);
      if (!candidate.feasible) continue;
      if (!best_core.has_value() ||
          ledger.core(c).security_load < ledger.core(*best_core).security_load) {
        best_core = c;
        best = candidate;
      }
    }
    if (!best_core.has_value()) {
      return infeasible_allocation(
          s, "no core admits an acceptable period for security task '" + task.name + "'");
    }
    ledger.commit(s, *best_core, best.period);
  }
  return std::move(ledger).finish();
}

std::string UtilFitAllocator::describe() const {
  return "utilization-aware worst-fit: least security-loaded feasible core "
         "(spread the monitors)";
}

}  // namespace hydra::core
