#include "core/period_adaptation.h"

#include <algorithm>
#include <cmath>

#include "gp/problem.h"
#include "gp/solver.h"
#include "gp/solver_registry.h"
#include "rt/analysis.h"
#include "util/contracts.h"

namespace hydra::core {

namespace {

PeriodAdaptation solve_closed_form(const rt::SecurityTask& task,
                                   const rt::InterferenceBound& bound) {
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

PeriodAdaptation solve_gp(const rt::SecurityTask& task, const rt::InterferenceBound& bound) {
  PeriodAdaptation out;

  // One-variable GP per the paper's appendix:
  //   min Ts   s.t.  Tdes·Ts⁻¹ ≤ 1,  (1/Tmax)·Ts ≤ 1,
  //                  (Cs + A)·Ts⁻¹ + B ≤ 1.
  gp::GpProblem problem;
  const gp::VarId ts = problem.add_variable();
  problem.set_objective(gp::Posynomial(problem.monomial(1.0).with(ts, 1.0)));
  problem.add_bounds(ts, task.period_des, task.period_max);

  gp::Posynomial sched = problem.posynomial();
  sched += problem.monomial(task.wcet + bound.const_part).with(ts, -1.0);
  if (bound.util_part > 0.0) sched += problem.monomial(bound.util_part);
  problem.add_constraint_leq1(std::move(sched));  // Cs + I(Ts) <= Ts

  // Start just inside the Tmax bound (the exact corner sits on the box
  // boundary and would trigger the solver's phase-I program needlessly).
  const double start =
      std::max(task.period_des * (1.0 + 1e-9), task.period_max * (1.0 - 1e-6));
  // No options plumbing reaches this one-variable solve (contego and the
  // tightening passes call adapt_period directly), so backend selection
  // arrives ambiently through the innermost GpBackendScope.
  const gp::SolveResult sr = gp::solve_with_backend(problem, std::vector<double>{start});
  if (!sr.ok()) return out;

  out.feasible = true;
  out.period = std::clamp(sr.x[0], task.period_des, task.period_max);
  out.tightness = task.period_des / out.period;
  return out;
}

}  // namespace

std::optional<util::Millis> min_feasible_period(const rt::SecurityTask& task,
                                                const rt::InterferenceBound& bound) {
  const double slack_rate = 1.0 - bound.util_part;
  if (slack_rate <= util::kTimeEpsilon) return std::nullopt;
  return (task.wcet + bound.const_part) / slack_rate;
}

PeriodAdaptation adapt_period(const rt::SecurityTask& task, const rt::InterferenceBound& bound,
                              PeriodSolver solver) {
  rt::validate(task);
  switch (solver) {
    case PeriodSolver::kClosedForm:
      return solve_closed_form(task, bound);
    case PeriodSolver::kGeometricProgram:
      return solve_gp(task, bound);
    case PeriodSolver::kExactRta:
      HYDRA_REQUIRE(false, "kExactRta needs interferer lists; call adapt_period_exact");
  }
  HYDRA_ASSERT(false, "unknown PeriodSolver");
}

std::size_t tighten_core_periods(const std::vector<rt::RtTask>& rt_on_core,
                                 std::vector<CommittedSecurityTask>& tasks,
                                 util::Millis blocking, std::size_t rounds) {
  std::size_t changed = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    // Eq. (5) sums over the RT tasks plus the already-revisited (tightened)
    // higher-priority monitors, grown with add_interferer as the pass walks
    // down the priority order — the same accumulation order a per-task
    // rebuild would use, so the sums match a rebuild bit-for-bit.  Rebuilt
    // each round because every period may have moved.
    rt::InterferenceBound hp_sums = rt::interference_bound(rt_on_core, {}, blocking);
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
        double aj = tasks[j].task.wcet + blocking;
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

void tighten_core_placements(const std::vector<rt::RtTask>& rt_on_core,
                             const std::vector<std::size_t>& members,
                             const std::vector<rt::SecurityTask>& security_tasks,
                             std::vector<TaskPlacement>& placements, std::size_t rounds) {
  if (members.empty()) return;
  std::vector<CommittedSecurityTask> committed;
  committed.reserve(members.size());
  for (const std::size_t s : members) {
    committed.push_back(CommittedSecurityTask{security_tasks[s], placements[s].period});
  }
  tighten_core_periods(rt_on_core, committed, 0.0, rounds);
  for (std::size_t k = 0; k < members.size(); ++k) {
    const std::size_t s = members[k];
    placements[s].period = committed[k].period;
    placements[s].tightness = security_tasks[s].period_des / committed[k].period;
  }
}

PeriodAdaptation adapt_period_exact(const rt::SecurityTask& task,
                                    const std::vector<rt::RtTask>& rt_on_core,
                                    const std::vector<rt::PlacedSecurityTask>& hp_security,
                                    util::Millis blocking,
                                    const rt::InterferenceBound* interferer_sums) {
  rt::validate(task);
  PeriodAdaptation out;
  const auto response = rt::security_response_time(task, task.period_max, rt_on_core,
                                                   hp_security, blocking, interferer_sums);
  if (!response.has_value()) return out;
  out.feasible = true;
  out.period = std::clamp(*response, task.period_des, task.period_max);
  out.tightness = task.period_des / out.period;
  return out;
}

}  // namespace hydra::core
