#include "core/hydra.h"

#include "rt/priority.h"

namespace hydra::core {

Allocation HydraAllocator::allocate(const Instance& instance,
                                    const rt::Partition& rt_partition) const {
  CoreLedger ledger(instance, rt_partition);

  // Lines 2–14: highest to lowest security priority (ascending Tmax, unless
  // the caller supplied a chain-consistent override).
  const auto order =
      rt::resolve_security_order(instance.security_tasks, options_.priority_order);
  for (const std::size_t s : order) {
    const rt::SecurityTask& task = instance.security_tasks[s];

    // Lines 3–5: solve Eq. (7) on every core.
    std::optional<std::size_t> best_core;
    PeriodAdaptation best{};
    for (std::size_t c = 0; c < instance.num_cores; ++c) {
      const CoreLedger::Core& core = ledger.core(c);
      const PeriodAdaptation candidate =
          options_.test == ScheduleTest::kExactRta
              ? adapt_period_exact(task, core.rt_tasks, core.placed, &core.interferers)
              : adapt_period(task, core.interferers);
      if (!candidate.feasible) continue;

      // Line 11: argmax ηs, ties resolved by the TieBreak option.
      const bool take =
          !best_core.has_value() || candidate.tightness > best.tightness + 1e-12 ||
          (candidate.tightness > best.tightness - 1e-12 &&
           options_.tie_break == TieBreak::kLeastLoaded &&
           core.utilization() < ledger.core(*best_core).utilization());
      if (take) {
        best_core = c;
        best = candidate;
      }
    }

    // Lines 7–10: no feasible core anywhere ⇒ unschedulable.
    if (!best_core.has_value()) {
      return infeasible_allocation(
          s, "no core admits an acceptable period for security task '" + task.name + "'");
    }

    // Lines 12–13: commit assignment and period.
    ledger.commit(s, *best_core, best.period);
  }
  return std::move(ledger).finish();
}

std::string HydraAllocator::describe() const {
  std::string text = "greedy joint allocation + period adaptation (Algorithm 1); ";
  text += options_.test == ScheduleTest::kExactRta ? "exact-RTA subproblem"
                                                    : "closed-form subproblem";
  if (options_.tie_break == TieBreak::kLowestIndex) text += "; lowest-index tie break";
  return text;
}

}  // namespace hydra::core
