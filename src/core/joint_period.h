// Joint period optimization for a *fixed* security-task-to-core assignment
// (paper appendix; used by the Optimal comparator of §IV-B.2).
//
// For assignment X, the variables are the periods Ts of all security tasks.
// Dividing Eq. (6) by Ts turns each schedulability constraint into the
// posynomial
//
//     (Cs + A_s)·Ts⁻¹ + B_s + Σ_{h ∈ hpS(s) on same core} C_h·T_h⁻¹  ≤ 1
//
// where A_s/B_s aggregate the core's RT tasks (+ all hp security WCETs in
// A_s... see implementation) — note the coupling term C_h/T_h linking each
// task to its higher-priority neighbours.
//
// The paper's literal objective (maximize Σ ωs·Tdes_s/Ts) is signomial, not
// GP (docs/architecture.md, "Substitutions and modelling choices", S5).  It
// is solved as posed, by iterated monomial condensation
// (gp::maximize_posynomial_scp), multi-start; one start is the solution of
// the rigorous sum-surrogate GP, minimize Σ (ωs/Tdes_s)·Ts, which
// make_joint_period_gp below builds on its own.  test_joint_period checks
// that SCP never trails that surrogate or the log-utility GP.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/instance.h"
#include "gp/problem.h"
#include "rt/partition.h"

namespace hydra::core {

struct JointPeriodResult {
  bool feasible = false;
  std::vector<util::Millis> periods;  ///< parallel to security task vector
  double cumulative_tightness = 0.0;  ///< Σ ωs·Tdes_s/Ts at the result
};

/// Optimizes all security periods for the fixed `core_of` assignment
/// (core_of[s] = core of security task s) against the given RT partition.
/// Feasibility is decided exactly: the constraint set is jointly loosest at
/// Ts = Tmax for all s, so the assignment is feasible iff that corner
/// satisfies every constraint.
JointPeriodResult optimize_joint_periods(const Instance& instance,
                                         const rt::Partition& rt_partition,
                                         const std::vector<std::size_t>& core_of);

/// A sound upper bound on optimize_joint_periods(...).cumulative_tightness
/// for the same assignment, computed without a solve.  nullopt exactly when
/// optimize_joint_periods reports the assignment infeasible (the same
/// Tmax-corner check, bit for bit).  Each task contributes
/// ωs·max(Tdes_s/Tmax_s, min(1, Tdes_s·slack_s/K_s)), where K_s = Cs + local
/// RT and hp WCETs, and slack_s is the Eq. (6) constraint's acceptance slack
/// left after the local RT utilization and every local hp task at its Tmax.
/// The sum is inflated by a relative 1e-9.
std::optional<double> joint_tightness_bound(const Instance& instance,
                                            const rt::Partition& rt_partition,
                                            const std::vector<std::size_t>& core_of);

/// The joint-period GP for the fixed assignment as a standalone problem:
/// period bounds + per-task schedulability posynomials, with the rigorous
/// sum-surrogate objective Σ (ωs/Tdes_s)·Ts.  This is exactly the convex
/// program whose solution warm-starts optimize_joint_periods' SCP; exposed so
/// the differential solver tests can cross-check every registered backend on
/// the real GP instances the corpus workloads induce, and so
/// test_joint_period can compare SCP against the GP surrogates.
gp::GpProblem make_joint_period_gp(const Instance& instance, const rt::Partition& rt_partition,
                                   const std::vector<std::size_t>& core_of);

}  // namespace hydra::core
