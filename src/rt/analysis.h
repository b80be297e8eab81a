// Uniprocessor schedulability analysis: demand bound function (paper Eq. 1)
// and exact response-time analysis for fixed-priority preemptive scheduling
// (Audsley et al. [16], used by the paper's Eq. 5 reasoning).
#pragma once

#include <optional>
#include <vector>

#include "rt/interference.h"
#include "rt/task.h"
#include "util/units.h"

namespace hydra::rt {

/// DBF(τ, t) = max(0, (⌊(t − D)/T⌋ + 1)·C): the maximum cumulative execution
/// demand of jobs of τ with both release and deadline inside any window of
/// length t (Baruah & Fisher [15]).
double dbf(const RtTask& task, util::Millis t);

/// The paper's Eq. (1) necessary condition for M-core schedulability:
/// Σ DBF(τr, t) ≤ M·t for all t > 0.  Checked at every absolute-deadline
/// point D_i + k·T_i up to `horizon` (plus the asymptotic utilization bound
/// ΣU ≤ M, which is the t → ∞ limit).  When `horizon` is not given it
/// defaults to 2·max_i(D_i + T_i), enough to catch small-t violations that
/// the utilization bound misses.
bool dbf_necessary_condition(const std::vector<RtTask>& tasks, std::size_t num_cores,
                             std::optional<util::Millis> horizon = std::nullopt);

/// Exact worst-case response time of the task at `index` against the
/// higher-priority interferers `hp` on the same core, via the standard
/// fixed-point iteration R = C + B + Σ ⌈R/T_j⌉·C_j.  `blocking` is the
/// longest non-preemptive section of any lower-priority task on the core
/// (0 for the fully preemptive model).  Returns nullopt when the iteration
/// exceeds the deadline (unschedulable) or higher-priority utilization
/// is >= 1.
std::optional<util::Millis> response_time(const RtTask& task, const std::vector<RtTask>& hp,
                                          util::Millis blocking = 0.0);

/// True iff every RT task on the core still meets its deadline when a
/// lower-priority band may block it non-preemptively for up to `blocking`
/// (the longest non-preemptive security WCET hosted there).
bool core_schedulable_rm_with_blocking(const std::vector<RtTask>& tasks_on_core,
                                       util::Millis blocking);

/// Incremental admission test for partitioning loops.  `resident_by_priority`
/// must be RM-schedulable with `blocking` and sorted in RM priority order
/// (ascending period, earlier-placed first among equal periods — the order an
/// `upper_bound`-by-period insertion maintains).  Returns whether the core
/// stays schedulable with `candidate` added.
///
/// Verdict-equivalent to core_schedulable_rm_with_blocking on the combined
/// set: under preemptive fixed priorities a new task cannot disturb the tasks
/// that outrank it, so only the candidate itself and the residents it
/// preempts need fresh response times.  Interference sums are accumulated in
/// the same priority order as the full test so marginal fixpoints agree
/// bit-for-bit.
bool core_admits_rm(const std::vector<RtTask>& resident_by_priority, const RtTask& candidate,
                    util::Millis blocking = 0.0);

/// True iff every task on one core meets its deadline under fixed-priority
/// preemptive scheduling with rate-monotonic priorities.
bool core_schedulable_rm(const std::vector<RtTask>& tasks_on_core);

/// Liu–Layland utilization bound n·(2^{1/n} − 1) for n tasks [14].  A cheaper
/// sufficient test, kept as a test oracle against exact RTA; the admission
/// fast path uses the hyperbolic bound below, which dominates it.
double liu_layland_bound(std::size_t n);

/// Hyperbolic bound (Bini, Buttazzo & Buttazzo): Π(Ui + 1) ≤ 2 is sufficient
/// for RM schedulability and strictly dominates the Liu–Layland test.
bool hyperbolic_bound_holds(const std::vector<RtTask>& tasks);

/// Worst-case response time of a *security* task running below every RT task
/// on its core (and below the already-placed higher-priority security tasks),
/// by exact RTA.  This is the exact counterpart of the paper's linear Eq. (5)
/// bound: the bound is provably conservative w.r.t. this value (tested).
/// `period` is the security task's candidate period (= its deadline).
///
/// `interferer_sums`, when given, must equal
/// interference_bound(rt_on_core, hp_security_on_core, blocking); allocators
/// that probe many candidate periods against one core pass their incrementally
/// maintained bound so the Σ WCET / Σ utilization preamble — and the
/// utilization-overload early exit — run in O(1) instead of O(interferers)
/// per probe.  The converged response time is identical either way: the
/// fixpoint iteration seeds at or below the least fixpoint and lands on the
/// same ceil-stable sum regardless of the seed.
std::optional<util::Millis> security_response_time(
    const SecurityTask& task, util::Millis period, const std::vector<RtTask>& rt_on_core,
    const std::vector<PlacedSecurityTask>& hp_security_on_core, util::Millis blocking = 0.0,
    const InterferenceBound* interferer_sums = nullptr);

}  // namespace hydra::rt
