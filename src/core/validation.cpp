#include "core/validation.h"

#include <cmath>

#include "rt/analysis.h"
#include "rt/priority.h"
#include "util/units.h"

namespace hydra::core {

namespace {

ValidationReport fail(std::string why) { return ValidationReport{false, std::move(why)}; }

}  // namespace

ValidationReport validate_allocation(
    const Instance& instance, const Allocation& allocation,
    const std::optional<std::vector<std::size_t>>& priority_order, ScheduleTest test) {
  if (!allocation.feasible) return fail("allocation is marked infeasible");
  if (allocation.placements.size() != instance.security_tasks.size()) {
    return fail("placements do not cover the security task set");
  }
  if (allocation.rt_partition.num_cores != instance.num_cores ||
      allocation.rt_partition.core_of.size() != instance.rt_tasks.size()) {
    return fail("RT partition shape mismatch");
  }
  for (const std::size_t c : allocation.rt_partition.core_of) {
    if (c >= instance.num_cores) return fail("RT partition shape mismatch");
  }

  // Each core's RT timings, gathered once: core c holds
  // by_core[start[c] .. start[c + 1]), in input order.
  const auto& core_of = allocation.rt_partition.core_of;
  std::vector<rt::RtTiming> by_core;
  by_core.reserve(core_of.size());
  std::vector<std::size_t> start(instance.num_cores + 1, 0);
  for (std::size_t c = 0; c < instance.num_cores; ++c) {
    start[c] = by_core.size();
    for (std::size_t r = 0; r < core_of.size(); ++r) {
      if (core_of[r] == c) by_core.push_back(rt::timing_of(instance.rt_tasks[r]));
    }
  }
  start[instance.num_cores] = by_core.size();
  const auto on_core = [&](std::size_t c) {
    return rt::TimingSpan(by_core.data() + start[c], start[c + 1] - start[c]);
  };

  // Premise: the RT partition itself must be schedulable on every core.
  for (std::size_t c = 0; c < instance.num_cores; ++c) {
    if (!rt::core_schedulable_rm(on_core(c))) {
      return fail("RT tasks on core " + std::to_string(c) + " are not RM-schedulable");
    }
  }

  const auto& sec = instance.security_tasks;
  const auto rank = rt::rank_of(rt::resolve_security_order(sec, priority_order));
  // A security task is interfered with by a monitor on its core that outranks it.
  const auto outranks = [&](std::size_t h, std::size_t s) {
    return h != s && allocation.placements[h].core == allocation.placements[s].core &&
           rank[h] < rank[s];
  };
  std::vector<rt::PlacedSecurityTask> local_hp;  // exact RTA's interferers, reused

  for (std::size_t s = 0; s < sec.size(); ++s) {
    const auto& task = sec[s];
    const auto& place = allocation.placements[s];
    if (place.core >= instance.num_cores) {
      return fail("task '" + task.name + "' placed on nonexistent core");
    }
    // Eq. (4): period within [Tdes, Tmax].
    if (!util::leq_tol(task.period_des, place.period) ||
        !util::leq_tol(place.period, task.period_max)) {
      return fail("task '" + task.name + "' period outside [Tdes, Tmax]");
    }
    // Reported tightness must match the period.
    if (!util::approx_equal(place.tightness, task.period_des / place.period, 1e-9, 1e-9)) {
      return fail("task '" + task.name + "' reports inconsistent tightness");
    }

    // This task's interferers: the RT tasks on its core and the higher-
    // priority security tasks there at their assigned periods.
    const rt::TimingSpan local_rt = on_core(place.core);
    if (test == ScheduleTest::kLinearBound) {
      // Eq. (6), recomputed from scratch: Cs + Σ_RT (1 + Ts/Tr)·Cr
      //   + Σ_hp-sec-local (1 + Ts/Th)·Ch ≤ Ts.
      double demand = task.wcet;
      for (const auto& rt_task : local_rt) {
        demand += (1.0 + place.period / rt_task.period) * rt_task.wcet;
      }
      for (std::size_t h = 0; h < sec.size(); ++h) {
        if (!outranks(h, s)) continue;
        demand += (1.0 + place.period / allocation.placements[h].period) * sec[h].wcet;
      }
      if (!util::leq_tol(demand, place.period, 1e-4)) {
        return fail("task '" + task.name + "' violates Eq. (6): demand " +
                    std::to_string(demand) + " > period " + std::to_string(place.period));
      }
    } else {
      local_hp.clear();
      for (std::size_t h = 0; h < sec.size(); ++h) {
        if (!outranks(h, s)) continue;
        local_hp.push_back(
            rt::PlacedSecurityTask{sec[h].wcet, allocation.placements[h].period});
      }
      const auto response =
          rt::security_response_time(task, place.period, local_rt, local_hp);
      if (!response.has_value()) {
        return fail("task '" + task.name + "' misses its deadline under exact RTA");
      }
    }
  }
  return ValidationReport{true, {}};
}

}  // namespace hydra::core
