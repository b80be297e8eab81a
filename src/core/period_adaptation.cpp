#include "core/period_adaptation.h"

#include <algorithm>

#include "rt/analysis.h"

namespace hydra::core {

std::optional<util::Millis> min_feasible_period(const rt::SecurityTask& task,
                                                const rt::InterferenceBound& bound) {
  const double slack_rate = 1.0 - bound.util_part;
  if (slack_rate <= util::kTimeEpsilon) return std::nullopt;
  return (task.wcet + bound.const_part) / slack_rate;
}

PeriodAdaptation adapt_period(const rt::SecurityTask& task, const rt::InterferenceBound& bound) {
  rt::validate(task);
  PeriodAdaptation out;
  const auto t_min = min_feasible_period(task, bound);
  if (!t_min.has_value()) return out;

  const util::Millis period = std::max(task.period_des, *t_min);
  if (!util::leq_tol(period, task.period_max)) return out;
  // Defensive re-check of Eq. (6) at the chosen period.
  if (!rt::security_schedulable(task, period, bound)) return out;

  out.feasible = true;
  out.period = std::min(period, task.period_max);  // clamp tolerance overshoot
  out.tightness = task.period_des / out.period;
  return out;
}

std::size_t tighten_core_periods(rt::TimingSpan rt_on_core,
                                 std::vector<CommittedSecurityTask>& tasks,
                                 std::size_t rounds) {
  std::size_t changed = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    // Eq. (5) sums over the RT tasks plus the already-revisited (tightened)
    // higher-priority monitors, grown with add_interferer as the pass walks
    // down the priority order — the same accumulation order a per-task
    // rebuild would use, so the sums match a rebuild bit-for-bit.  Rebuilt
    // each round because every period may have moved.
    rt::InterferenceBound hp_sums = rt::interference_bound(rt_on_core, {});
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const rt::SecurityTask& task = tasks[i].task;

      // The task's own Eq. (7) optimum against the tightened hp periods.
      const PeriodAdaptation own = adapt_period(task, hp_sums);
      if (!own.feasible) {
        // Saturated core: keep the (feasible) period.
        hp_sums.add_interferer(task.wcet, tasks[i].period);
        continue;
      }

      // Lower bounds from the not-yet-revisited lower-priority tasks: each τj
      // must stay feasible at its CURRENT period Tj while τi shrinks, i.e.
      // (1 + Tj/Ti)·Ci ≤ Tj − aj, where aj is τj's demand excluding τi.
      util::Millis floor = own.period;
      for (std::size_t j = i + 1; j < tasks.size(); ++j) {
        const util::Millis tj = tasks[j].period;
        double aj = tasks[j].task.wcet;
        for (const auto& r : rt_on_core) aj += (1.0 + tj / r.period) * r.wcet;
        for (std::size_t h = 0; h < j; ++h) {
          if (h == i) continue;
          aj += (1.0 + tj / tasks[h].period) * tasks[h].task.wcet;
        }
        const double slack = tj - aj - task.wcet;
        if (slack <= util::kTimeEpsilon) {
          floor = tasks[i].period;  // no room: τj sits on its constraint already
          break;
        }
        floor = std::max(floor, task.wcet * tj / slack);
      }

      const util::Millis tightened =
          std::max(task.period_des, std::min(tasks[i].period, floor));
      if (tightened < tasks[i].period - util::kTimeEpsilon) ++changed;
      tasks[i].period = std::min(tasks[i].period, tightened);
      hp_sums.add_interferer(task.wcet, tasks[i].period);
    }
  }
  return changed;
}

void tighten_core_placements(rt::TimingSpan rt_on_core,
                             const std::vector<std::size_t>& members,
                             const std::vector<rt::SecurityTask>& security_tasks,
                             std::vector<TaskPlacement>& placements, std::size_t rounds) {
  if (members.empty()) return;
  std::vector<CommittedSecurityTask> committed;
  committed.reserve(members.size());
  for (const std::size_t s : members) {
    committed.push_back(CommittedSecurityTask{security_tasks[s], placements[s].period});
  }
  tighten_core_periods(rt_on_core, committed, rounds);
  for (std::size_t k = 0; k < members.size(); ++k) {
    const std::size_t s = members[k];
    placements[s].period = committed[k].period;
    placements[s].tightness = security_tasks[s].period_des / committed[k].period;
  }
}

PeriodAdaptation adapt_period_exact(const rt::SecurityTask& task,
                                    rt::TimingSpan rt_on_core,
                                    const std::vector<rt::PlacedSecurityTask>& hp_security,
                                    const rt::InterferenceBound* interferer_sums) {
  rt::validate(task);
  PeriodAdaptation out;
  const auto response = rt::security_response_time(task, task.period_max, rt_on_core,
                                                   hp_security, interferer_sums);
  if (!response.has_value()) return out;
  out.feasible = true;
  out.period = std::clamp(*response, task.period_des, task.period_max);
  out.tightness = task.period_des / out.period;
  return out;
}

}  // namespace hydra::core
