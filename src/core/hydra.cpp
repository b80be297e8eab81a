#include "core/hydra.h"

#include "rt/interference.h"
#include "rt/priority.h"
#include "util/contracts.h"

namespace hydra::core {

namespace {

/// Mutable per-core bookkeeping while the greedy pass runs.
struct CoreState {
  std::vector<rt::RtTask> rt_tasks;                   ///< RT tasks partitioned here
  std::vector<rt::PlacedSecurityTask> placed;         ///< security tasks already assigned
  double utilization = 0.0;                           ///< RT + assigned security demand

  /// Eq. (5) interferer sums, maintained incrementally: seeded from the RT
  /// tasks once, then extended via add_interferer as monitors commit — the
  /// same accumulation order interference_bound uses, so the cached sums are
  /// bitwise identical to a fresh rebuild.
  rt::InterferenceBound interferers;
};

}  // namespace

Allocation HydraAllocator::allocate(const Instance& instance,
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
      const PeriodAdaptation candidate =
          options_.solver == PeriodSolver::kExactRta
              ? adapt_period_exact(task, cores[c].rt_tasks, cores[c].placed,
                                   &cores[c].interferers)
              : adapt_period(task, cores[c].interferers, options_.solver);
      if (!candidate.feasible) continue;

      // Line 11: argmax ηs, ties resolved by the TieBreak option.
      const bool take =
          !best_core.has_value() || candidate.tightness > best.tightness + 1e-12 ||
          (candidate.tightness > best.tightness - 1e-12 &&
           options_.tie_break == TieBreak::kLeastLoaded &&
           cores[c].utilization < cores[*best_core].utilization);
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
    result.placements[s] = TaskPlacement{*best_core, best.period, best.tightness};
    cores[*best_core].placed.push_back(rt::PlacedSecurityTask{task.wcet, best.period});
    cores[*best_core].interferers.add_interferer(task.wcet, best.period);
    cores[*best_core].utilization += task.wcet / best.period;
  }

  result.feasible = true;
  return result;
}

Allocation HydraAllocator::allocate(const Instance& instance) const {
  return allocate_with_default_partition(instance);
}

std::string HydraAllocator::describe() const {
  std::string text = "greedy joint allocation + period adaptation (Algorithm 1); ";
  switch (options_.solver) {
    case PeriodSolver::kClosedForm: text += "closed-form subproblem"; break;
    case PeriodSolver::kGeometricProgram: text += "GP subproblem"; break;
    case PeriodSolver::kExactRta: text += "exact-RTA subproblem"; break;
  }
  if (options_.tie_break == TieBreak::kLowestIndex) text += "; lowest-index tie break";
  return text;
}

}  // namespace hydra::core
