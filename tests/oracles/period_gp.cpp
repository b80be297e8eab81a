#include "oracles/period_gp.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "gp/problem.h"
#include "gp/solver_registry.h"

namespace hydra::oracle {

core::PeriodAdaptation adapt_period_gp(const rt::SecurityTask& task,
                                       const rt::InterferenceBound& bound) {
  rt::validate(task);
  core::PeriodAdaptation out;

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
  const gp::SolveResult sr = gp::solve_with_backend(problem, std::vector<double>{start});
  if (!sr.ok()) return out;

  out.feasible = true;
  out.period = std::clamp(sr.x[0], task.period_des, task.period_max);
  out.tightness = task.period_des / out.period;
  return out;
}

}  // namespace hydra::oracle
