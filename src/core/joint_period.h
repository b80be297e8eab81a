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
// GP (DESIGN.md §5), so three documented objectives are offered:
//
//   kSumSurrogate — minimize Σ (ωs/Tdes_s)·Ts (posynomial ⇒ rigorous GP)
//   kLogUtility   — maximize Σ ωs·log ηs  ⇔  minimize Π Ts^{ωs}
//                   (monomial objective ⇒ rigorous GP)
//   kSignomialScp — the literal objective via iterated monomial condensation
//                   (gp::maximize_posynomial_scp), multi-start
//
// All three return periods that are feasible for Eq. (4) + (6); they differ
// only in which feasible point they prefer.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/instance.h"
#include "gp/problem.h"
#include "rt/partition.h"

namespace hydra::core {

enum class JointObjective {
  kSumSurrogate,
  kLogUtility,
  kSignomialScp,
};

struct JointPeriodOptions {
  JointObjective objective = JointObjective::kSignomialScp;
  util::Millis blocking = 0.0;
};

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
                                         const std::vector<std::size_t>& core_of,
                                         const JointPeriodOptions& options = {});

/// A sound upper bound on optimize_joint_periods(...).cumulative_tightness
/// for the same assignment under every JointObjective, computed without a
/// solve.  nullopt exactly when optimize_joint_periods reports the
/// assignment infeasible (the same Tmax-corner check, bit for bit).  Each
/// task contributes ωs·max(Tdes_s/Tmax_s, min(1, Tdes_s·slack_s/K_s)), where
/// K_s = Cs + blocking + local RT and hp WCETs, and slack_s is the Eq. (6)
/// constraint's acceptance slack left after the local RT utilization and
/// every local hp task at its Tmax.  The sum is inflated by a relative 1e-9.
std::optional<double> joint_tightness_bound(const Instance& instance,
                                            const rt::Partition& rt_partition,
                                            const std::vector<std::size_t>& core_of,
                                            util::Millis blocking = 0.0);

/// The joint-period GP for the fixed assignment as a standalone problem:
/// period bounds + per-task schedulability posynomials, with the rigorous
/// sum-surrogate objective Σ (ωs/Tdes_s)·Ts.  This is exactly the inner
/// convex program optimize_joint_periods builds; exposed so the differential
/// solver tests can cross-check every registered backend on the real GP
/// instances the corpus workloads induce.
gp::GpProblem make_joint_period_gp(const Instance& instance, const rt::Partition& rt_partition,
                                   const std::vector<std::size_t>& core_of,
                                   const JointPeriodOptions& options = {});

}  // namespace hydra::core
