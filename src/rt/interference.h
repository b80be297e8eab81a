// The paper's interference bound on a security task (Eq. 5).
//
// On core m, a security task τs (lowest-priority band) is interfered with by
// every RT task partitioned there and every *higher-priority* security task
// assigned there:
//
//   I_s^m = Σ_{τr on m} (1 + Ts/Tr)·Cr  +  Σ_{τh ∈ hpS(τs) on m} (1 + Ts/Th)·Ch
//
// which is affine in the unknown period Ts:  I(Ts) = A + B·Ts with
//   A = Σ C           (one full WCET per interferer)
//   B = Σ C/T          (the interferers' utilization).
//
// The schedulability constraint (Eq. 6), Cs + I(Ts) ≤ Ts, therefore has the
// closed-form minimum feasible period (Cs + A)/(1 − B) when B < 1 — this is
// what makes the per-(task, core) subproblem solvable both analytically and
// as a GP.
#pragma once

#include <vector>

#include "rt/task.h"
#include "util/units.h"

namespace hydra::rt {

/// Affine interference bound I(Ts) = const_part + util_part · Ts.
struct InterferenceBound {
  double const_part = 0.0;  ///< A: sum of interferer WCETs
  double util_part = 0.0;   ///< B: sum of interferer utilizations

  util::Millis eval(util::Millis period) const { return const_part + util_part * period; }

  /// Adds one interferer with the given WCET and period.
  void add_interferer(util::Millis wcet, util::Millis period);
};

/// One already-placed higher-priority security task as seen by Eq. (5):
/// its WCET and its *assigned* period.
struct PlacedSecurityTask {
  util::Millis wcet = 0.0;
  util::Millis period = 0.0;
};

/// Builds the Eq. (5) bound for a candidate core: `rt_on_core` are the RT
/// tasks partitioned there, `hp_security_on_core` the higher-priority
/// security tasks already assigned there.
InterferenceBound interference_bound(TimingSpan rt_on_core,
                                     const std::vector<PlacedSecurityTask>& hp_security_on_core);

/// The paper's Eq. (6) check: Cs + I(Ts) ≤ Ts (with the shared tolerance).
bool security_schedulable(const SecurityTask& task, util::Millis period,
                          const InterferenceBound& bound);

}  // namespace hydra::rt
