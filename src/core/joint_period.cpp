#include "core/joint_period.h"

#include <algorithm>
#include <cmath>

#include "core/allocator.h"
#include "core/period_adaptation.h"
#include "gp/problem.h"
#include "gp/scp.h"
#include "gp/solver.h"
#include "gp/solver_registry.h"
#include "rt/priority.h"
#include "util/contracts.h"

namespace hydra::core {

namespace {

/// Constraint slack a solver point may use and still be adopted; the bound
/// in joint_tightness_bound is derived from this same re-check.
constexpr double kAcceptTolerance = 1e-7;

void check_assignment(const Instance& instance, const rt::Partition& rt_partition,
                      const std::vector<std::size_t>& core_of) {
  validate_rt_partition(instance, rt_partition);
  HYDRA_REQUIRE(core_of.size() == instance.security_tasks.size(),
                "assignment must cover every security task");
  for (const std::size_t c : core_of) {
    HYDRA_REQUIRE(c < instance.num_cores, "assignment names a core that does not exist");
  }
}

/// Static (assignment-independent-period) data for one task's constraint:
/// (wcet_plus_const)·Ts⁻¹ + rt_util + Σ_h coupling_wcet[h]·T_h⁻¹ ≤ 1.
struct ConstraintShape {
  double wcet_plus_const = 0.0;           ///< Cs + Σ local Cr + Σ local hp Ch
  double rt_util = 0.0;                   ///< Σ local Cr/Tr
  std::vector<std::size_t> hp_local;      ///< indices of local higher-priority security tasks
};

std::vector<ConstraintShape> build_shapes(const Instance& instance,
                                          const rt::Partition& rt_partition,
                                          const std::vector<std::size_t>& core_of) {
  const auto& sec = instance.security_tasks;
  const auto rank = rt::rank_of(rt::security_priority_order(sec));

  std::vector<double> core_rt_const(instance.num_cores, 0.0);
  std::vector<double> core_rt_util(instance.num_cores, 0.0);
  for (std::size_t i = 0; i < instance.rt_tasks.size(); ++i) {
    const auto& t = instance.rt_tasks[i];
    core_rt_const[rt_partition.core_of[i]] += t.wcet;
    core_rt_util[rt_partition.core_of[i]] += t.utilization();
  }

  std::vector<ConstraintShape> shapes(sec.size());
  for (std::size_t s = 0; s < sec.size(); ++s) {
    ConstraintShape& shape = shapes[s];
    const std::size_t c = core_of[s];
    shape.wcet_plus_const = sec[s].wcet + core_rt_const[c];
    shape.rt_util = core_rt_util[c];
    for (std::size_t h = 0; h < sec.size(); ++h) {
      if (h != s && core_of[h] == c && rank[h] < rank[s]) {
        shape.hp_local.push_back(h);
        shape.wcet_plus_const += sec[h].wcet;
      }
    }
  }
  return shapes;
}

/// Left-hand side of task s's constraint at the period vector `periods`.
double constraint_value(const Instance& instance, const ConstraintShape& shape, std::size_t s,
                        const std::vector<util::Millis>& periods) {
  double v = shape.wcet_plus_const / periods[s] + shape.rt_util;
  for (const std::size_t h : shape.hp_local) v += instance.security_tasks[h].wcet / periods[h];
  return v;
}

/// The period vector T = Tmax, or nullopt when it violates a constraint.
/// Every constraint term is non-increasing in every period, so the corner is
/// the loosest point: the assignment is feasible iff the corner is.
std::optional<std::vector<util::Millis>> feasible_corner(
    const Instance& instance, const std::vector<ConstraintShape>& shapes) {
  const auto& sec = instance.security_tasks;
  std::vector<util::Millis> corner(sec.size());
  for (std::size_t s = 0; s < sec.size(); ++s) corner[s] = sec[s].period_max;
  for (std::size_t s = 0; s < sec.size(); ++s) {
    if (constraint_value(instance, shapes[s], s, corner) > 1.0 + util::kTimeEpsilon) {
      return std::nullopt;
    }
  }
  return corner;
}

double tightness_sum(const Instance& instance, const std::vector<util::Millis>& periods) {
  double acc = 0.0;
  for (std::size_t s = 0; s < periods.size(); ++s) {
    const auto& t = instance.security_tasks[s];
    acc += t.weight * t.period_des / periods[s];
  }
  return acc;
}

/// Builds the constraint-only GP (no objective) the SCP and the surrogate share.
gp::GpProblem build_constraint_problem(const Instance& instance,
                                       const std::vector<ConstraintShape>& shapes) {
  const auto& sec = instance.security_tasks;
  gp::GpProblem problem;
  std::vector<gp::VarId> var(sec.size());
  for (std::size_t s = 0; s < sec.size(); ++s) var[s] = problem.add_variable();
  for (std::size_t s = 0; s < sec.size(); ++s) {
    problem.add_bounds(var[s], sec[s].period_des, sec[s].period_max);
    gp::Posynomial sched = problem.posynomial();
    sched += problem.monomial(shapes[s].wcet_plus_const).with(var[s], -1.0);
    if (shapes[s].rt_util > 0.0) sched += problem.monomial(shapes[s].rt_util);
    for (const std::size_t h : shapes[s].hp_local) {
      sched += problem.monomial(sec[h].wcet).with(var[h], -1.0);
    }
    problem.add_constraint_leq1(std::move(sched));
  }
  return problem;
}

/// The rigorous sum-surrogate objective Σ (ωs/Tdes_s)·Ts as a posynomial.
gp::Posynomial sum_surrogate_objective(const Instance& instance, const gp::GpProblem& problem) {
  gp::Posynomial obj = problem.posynomial();
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    const auto& t = instance.security_tasks[s];
    obj += problem.monomial(t.weight / t.period_des).with(s, 1.0);
  }
  return obj;
}

/// The paper's literal objective Σ ωs·Tdes_s·Ts⁻¹ as a posynomial.
gp::Posynomial tightness_posynomial(const Instance& instance, const gp::GpProblem& problem) {
  gp::Posynomial obj = problem.posynomial();
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    const auto& t = instance.security_tasks[s];
    obj += problem.monomial(t.weight * t.period_des).with(s, -1.0);
  }
  return obj;
}

/// Priority-ordered sequential closed-form periods on the fixed assignment;
/// a good warm start for SCP.  May be infeasible even when the Tmax corner
/// is feasible (tight high-priority periods squeeze lower tasks).
std::optional<std::vector<util::Millis>> sequential_periods(
    const Instance& instance, const rt::Partition& rt_partition,
    const std::vector<std::size_t>& core_of) {
  const auto& sec = instance.security_tasks;
  CoreLedger ledger(instance, rt_partition);
  for (const std::size_t s : rt::security_priority_order(sec)) {
    const PeriodAdaptation pa = adapt_period(sec[s], ledger.core(core_of[s]).interferers);
    if (!pa.feasible) return std::nullopt;
    ledger.commit(s, core_of[s], pa.period);
  }
  std::vector<util::Millis> periods(sec.size());
  for (std::size_t s = 0; s < sec.size(); ++s) {
    periods[s] = ledger.allocation().placements[s].period;
  }
  return periods;
}

}  // namespace

JointPeriodResult optimize_joint_periods(const Instance& instance,
                                         const rt::Partition& rt_partition,
                                         const std::vector<std::size_t>& core_of) {
  check_assignment(instance, rt_partition, core_of);

  JointPeriodResult result;
  const auto& sec = instance.security_tasks;
  if (sec.empty()) {
    result.feasible = true;
    return result;
  }

  const auto shapes = build_shapes(instance, rt_partition, core_of);
  const auto corner = feasible_corner(instance, shapes);
  if (!corner) return result;  // infeasible

  // Fallback answer in case numerical optimization fails: the corner itself.
  result.feasible = true;
  result.periods = *corner;
  result.cumulative_tightness = tightness_sum(instance, *corner);

  // Strictly interior warm start: the corner sits ON the Ts <= Tmax boundary,
  // which would force the solver through its phase-I program on every call.
  // All constraints are monotone non-increasing in every period, so backing
  // every period off Tmax by the largest shrink that keeps the schedulability
  // constraints strictly satisfied lands inside the interior directly.
  std::vector<double> interior = *corner;
  for (const double shrink : {1e-3, 1e-5, 1e-7, 1e-9}) {
    std::vector<double> candidate(sec.size());
    for (std::size_t s = 0; s < sec.size(); ++s) {
      candidate[s] = std::max(sec[s].period_des * (1.0 + 1e-9),
                              sec[s].period_max * (1.0 - shrink));
    }
    bool strict = true;
    for (std::size_t s = 0; s < sec.size() && strict; ++s) {
      strict = constraint_value(instance, shapes[s], s, candidate) < 1.0 - shrink * 1e-3;
    }
    if (strict) {
      interior = std::move(candidate);
      break;
    }
  }

  const gp::GpProblem constraints = build_constraint_problem(instance, shapes);
  std::vector<std::vector<double>> starts{interior};
  if (const auto seq = sequential_periods(instance, rt_partition, core_of)) {
    starts.push_back(*seq);
  }
  // A sum-surrogate solution is a cheap, usually-excellent warm start.
  {
    gp::GpProblem problem = constraints;
    problem.set_objective(sum_surrogate_objective(instance, problem));
    const gp::SolveResult sr = gp::solve_with_backend(problem, interior);
    if (sr.ok()) starts.push_back(sr.x);
  }
  const gp::Posynomial objective = tightness_posynomial(instance, constraints);
  const gp::ScpResult scp = gp::maximize_posynomial_scp(constraints, objective, starts);
  if (!scp.feasible) return result;

  std::vector<util::Millis> periods(scp.x.size());
  for (std::size_t s = 0; s < scp.x.size(); ++s) {
    periods[s] = std::clamp(scp.x[s], sec[s].period_des, sec[s].period_max);
  }
  // Only adopt points that re-validate against the exact constraints.
  for (std::size_t s = 0; s < sec.size(); ++s) {
    if (constraint_value(instance, shapes[s], s, periods) > 1.0 + kAcceptTolerance) {
      return result;
    }
  }
  const double value = tightness_sum(instance, periods);
  if (value > result.cumulative_tightness) {
    result.periods = std::move(periods);
    result.cumulative_tightness = value;
  }
  return result;
}

std::optional<double> joint_tightness_bound(const Instance& instance,
                                            const rt::Partition& rt_partition,
                                            const std::vector<std::size_t>& core_of) {
  check_assignment(instance, rt_partition, core_of);
  const auto& sec = instance.security_tasks;
  if (sec.empty()) return 0.0;

  const auto shapes = build_shapes(instance, rt_partition, core_of);
  if (!feasible_corner(instance, shapes)) return std::nullopt;

  // An adopted period vector P has Tdes <= P <= Tmax and passes
  // constraint_value <= 1 + kAcceptTolerance.  Each hp term C_h/P_h is at
  // least C_h/Tmax_h, so wcet_plus_const_s/P_s <= slack_s below, which caps
  // Tdes_s/P_s.  The corner term Tdes_s/Tmax_s covers the fallback result.
  double bound = 0.0;
  for (std::size_t s = 0; s < sec.size(); ++s) {
    const ConstraintShape& shape = shapes[s];
    double slack = 1.0 + kAcceptTolerance - shape.rt_util;
    for (const std::size_t h : shape.hp_local) slack -= sec[h].wcet / sec[h].period_max;
    const double ratio = std::min(1.0, sec[s].period_des * slack / shape.wcet_plus_const);
    bound += sec[s].weight * std::max(sec[s].period_des / sec[s].period_max, ratio);
  }
  // Relative margin for the rounding of the sums compared against.
  return bound * (1.0 + 1e-9);
}

gp::GpProblem make_joint_period_gp(const Instance& instance, const rt::Partition& rt_partition,
                                   const std::vector<std::size_t>& core_of) {
  check_assignment(instance, rt_partition, core_of);
  HYDRA_REQUIRE(!instance.security_tasks.empty(),
                "joint-period GP needs at least one security task");
  const auto shapes = build_shapes(instance, rt_partition, core_of);
  gp::GpProblem problem = build_constraint_problem(instance, shapes);
  problem.set_objective(sum_surrogate_objective(instance, problem));
  return problem;
}

}  // namespace hydra::core
