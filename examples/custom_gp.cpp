// Using the geometric-programming substrate directly.
//
// The GP solver that powers HYDRA's period adaptation is a general-purpose
// library.  This example formulates the paper's appendix program by hand for
// a single security task — min Ts subject to Tdes ≤ Ts ≤ Tmax and
// (Cs + A)·Ts⁻¹ + B ≤ 1 — solves it, and checks it against the closed form,
// then solves a small multi-variable design problem to show the API scales
// past one variable.
//
// Usage: ./build/custom_gp
#include <iostream>

#include "core/period_adaptation.h"
#include "gp/problem.h"
#include "gp/solver.h"
#include "io/table.h"
#include "rt/interference.h"

namespace gp = hydra::gp;
namespace io = hydra::io;

int main() {
  // --- The appendix program, by hand. ---
  const double wcet = 80.0, t_des = 1000.0, t_max = 10000.0;
  const double interference_const = 350.0, interference_util = 0.55;

  gp::GpProblem problem;
  const gp::VarId ts = problem.add_variable();
  problem.set_objective(gp::Posynomial(problem.monomial(1.0).with(ts, 1.0)));  // min Ts
  problem.add_bounds(ts, t_des, t_max);                                        // Eq. (4)
  gp::Posynomial sched = problem.posynomial();                                 // Eq. (6)/Ts
  sched += problem.monomial(wcet + interference_const).with(ts, -1.0);
  sched += problem.monomial(interference_util);
  problem.add_constraint_leq1(std::move(sched));                               // Cs + I(Ts) <= Ts

  const auto solution = gp::GpSolver().solve(problem, std::vector<double>{t_max});
  if (!solution.ok()) {
    std::cerr << "solve failed: " << solution.message << "\n";
    return 1;
  }

  // Closed-form cross-check: (Cs + A)/(1 − B).
  const auto task = hydra::rt::make_security_task("monitor", wcet, t_des, t_max);
  hydra::rt::InterferenceBound bound;
  bound.const_part = interference_const;
  bound.util_part = interference_util;
  const auto closed = hydra::core::adapt_period(task, bound);

  io::print_banner(std::cout, "Appendix GP vs closed form");
  io::Table table({"route", "Ts (ms)", "tightness"});
  table.add_row({"interior-point GP", io::fmt(solution.x[0], 3),
                 io::fmt(t_des / solution.x[0], 4)});
  table.add_row({"closed form", io::fmt(closed.period, 3), io::fmt(closed.tightness, 4)});
  table.print(std::cout);

  // --- A coupled two-monitor program (the joint formulation's shape). ---
  // Two monitors share a core: minimize a weighted sum of periods subject to
  // each one's schedulability, with the high-priority period T0 appearing in
  // the low-priority constraint (the C0/T0 coupling term).
  gp::GpProblem joint;
  const gp::VarId t0 = joint.add_variable();
  const gp::VarId t1 = joint.add_variable();
  gp::Posynomial objective = joint.posynomial();
  objective += joint.monomial(2.0 / 1000.0).with(t0, 1.0);  // weight 2, Tdes 1000
  objective += joint.monomial(1.0 / 1500.0).with(t1, 1.0);  // weight 1, Tdes 1500
  joint.set_objective(objective);
  joint.add_bounds(t0, 1000.0, 10000.0);
  joint.add_bounds(t1, 1500.0, 15000.0);
  {
    gp::Posynomial c0 = joint.posynomial();  // 400/T0 + 0.3 <= 1
    c0 += joint.monomial(400.0).with(t0, -1.0);
    c0 += joint.monomial(0.3);
    joint.add_constraint_leq1(std::move(c0));
    gp::Posynomial c1 = joint.posynomial();  // (600+400)/T1 + 0.3 + 400/T0 <= 1
    c1 += joint.monomial(1000.0).with(t1, -1.0);
    c1 += joint.monomial(0.3);
    c1 += joint.monomial(400.0).with(t0, -1.0);
    joint.add_constraint_leq1(std::move(c1));
  }
  const auto joint_solution =
      gp::GpSolver().solve(joint, std::vector<double>{10000.0, 15000.0});
  if (!joint_solution.ok()) {
    std::cerr << "joint solve failed: " << joint_solution.message << "\n";
    return 1;
  }

  io::print_banner(std::cout, "Coupled two-monitor GP");
  io::Table joint_table({"variable", "value (ms)"});
  joint_table.add_row({"T0 (weight 2)", io::fmt(joint_solution.x[0], 2)});
  joint_table.add_row({"T1 (weight 1)", io::fmt(joint_solution.x[1], 2)});
  joint_table.print(std::cout);
  std::cout << "objective (weighted normalized periods): "
            << io::fmt(joint_solution.objective, 4) << "\n"
            << "note how the optimizer holds T0 near its floor — shrinking T0 "
               "further would inflate the coupled 400/T0 term in T1's "
               "constraint.\n";
  return 0;
}
