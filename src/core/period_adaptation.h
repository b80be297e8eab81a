// The per-(task, core) period-adaptation subproblem (paper Eq. 7):
//
//     max  ηs = Tdes_s/Ts
//     s.t. Tdes_s ≤ Ts ≤ Tmax_s,   Cs + I(Ts) ≤ Ts
//
// for a *fixed* core and fixed higher-priority security periods, where
// I(Ts) = A + B·Ts is the affine Eq. (5) bound.  Since η is strictly
// decreasing in Ts, the optimum is the smallest feasible period.
//
// Two interchangeable solution routes are provided:
//
//   kClosedForm — the affine constraint yields T* = (Cs + A)/(1 − B) when
//                 B < 1, so the answer is clamp(T*, Tdes, Tmax) directly.
//   kGeometricProgram — the paper's route: a one-variable GP (minimize the
//                 monomial Ts subject to posynomial constraints), solved with
//                 the interior-point machinery in src/gp.  Exists to mirror
//                 the publication faithfully and to cross-validate the
//                 closed form; results agree to solver tolerance (tested).
#pragma once

#include <optional>

#include "core/instance.h"
#include "rt/interference.h"
#include "rt/task.h"
#include "util/units.h"

namespace hydra::core {

enum class PeriodSolver {
  kClosedForm,
  kGeometricProgram,
  /// Exact response-time analysis instead of the paper's linear Eq. (5)
  /// bound.  Admits tighter periods (the bound is conservative); requires the
  /// full interferer lists, so it is served by adapt_period_exact and, in the
  /// allocators, selected via their options.  An ablation bench quantifies
  /// the conservatism.
  kExactRta,
};

struct PeriodAdaptation {
  bool feasible = false;
  util::Millis period = 0.0;  ///< optimal Ts when feasible
  double tightness = 0.0;     ///< Tdes/Ts when feasible
};

/// Solves Eq. (7) for `task` against the interference bound of a candidate
/// core.  Never throws on infeasibility — that is a normal outcome.
/// PeriodSolver::kExactRta is not servable from an aggregated bound and is
/// rejected here — use adapt_period_exact.
PeriodAdaptation adapt_period(const rt::SecurityTask& task, const rt::InterferenceBound& bound,
                              PeriodSolver solver = PeriodSolver::kClosedForm);

/// Eq. (7) with exact response-time analysis in place of the linear bound.
/// The response time R of the lowest-priority-band task does not depend on
/// its own period, so the optimum is simply clamp(R, Tdes, Tmax) — feasible
/// iff R ≤ Tmax.  `interferer_sums`, when given, must equal
/// interference_bound(rt_on_core, hp_security); allocators maintain
/// it incrementally so the per-probe RTA preamble is O(1) (see
/// rt::security_response_time).
PeriodAdaptation adapt_period_exact(const rt::SecurityTask& task,
                                    const std::vector<rt::RtTask>& rt_on_core,
                                    const std::vector<rt::PlacedSecurityTask>& hp_security,
                                    const rt::InterferenceBound* interferer_sums = nullptr);

/// The smallest period satisfying Cs + A + B·Ts ≤ Ts, ignoring the
/// [Tdes, Tmax] box: (Cs + A)/(1 − B).  nullopt when B ≥ 1 (interferers
/// saturate the core).  The closed-form solver's core; exposed for tests.
std::optional<util::Millis> min_feasible_period(const rt::SecurityTask& task,
                                                const rt::InterferenceBound& bound);

/// One security task already assigned to a core, with its currently committed
/// period, as seen by the slack-aware tightening pass below.
struct CommittedSecurityTask {
  rt::SecurityTask task;
  util::Millis period = 0.0;  ///< committed period, in [Tdes, Tmax]
};

/// Slack-aware opportunistic tightening of the committed periods on ONE core
/// (the adaptive-allocation move shared by the Contego-style and
/// period-adaptation-only schemes).
///
/// `tasks` must be in descending priority order with periods that are
/// feasible for Eq. (6) against `rt_on_core` and each other.  Each round
/// visits the tasks highest-priority first and shrinks each period toward
/// Tdes as far as BOTH constraints allow:
///
///   * the task's own Eq. (7) optimum given the (already tightened)
///     higher-priority periods, and
///   * a closed-form lower bound keeping every lower-priority task feasible
///     at its CURRENT period — tightening τi to Ti inflates each lp task j's
///     interference by (1 + Tj/Ti)·Ci, so Ti ≥ Ci·Tj/(Tj − aj − Ci) where aj
///     is j's demand from everything except τi.
///
/// Periods therefore never loosen, the set stays feasible by construction
/// after every single commit, and extra `rounds` only tighten further
/// (monotone in rounds — tested).  Returns the number of periods changed.
std::size_t tighten_core_periods(const std::vector<rt::RtTask>& rt_on_core,
                                 std::vector<CommittedSecurityTask>& tasks,
                                 std::size_t rounds = 1);

/// Allocation-level wrapper shared by the adaptive allocators: runs
/// tighten_core_periods over the security tasks listed in `members`
/// (descending priority order, all on the same core), reading the committed
/// periods from `placements` and writing the tightened periods and
/// tightnesses back.
void tighten_core_placements(const std::vector<rt::RtTask>& rt_on_core,
                             const std::vector<std::size_t>& members,
                             const std::vector<rt::SecurityTask>& security_tasks,
                             std::vector<TaskPlacement>& placements,
                             std::size_t rounds = 1);

}  // namespace hydra::core
