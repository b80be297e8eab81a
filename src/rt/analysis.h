// Uniprocessor schedulability analysis: the demand-bound necessary condition
// (paper Eq. 1) and exact response-time analysis for fixed-priority
// preemptive scheduling (Audsley et al. [16], used by the paper's Eq. 5
// reasoning).
#pragma once

#include <optional>
#include <vector>

#include "rt/interference.h"
#include "rt/task.h"
#include "util/units.h"

namespace hydra::rt {

/// The paper's Eq. (1) necessary condition for M-core schedulability:
/// Σ DBF(τr, t) ≤ M·t for all t > 0, where DBF(τ, t) =
/// max(0, (⌊(t − D)/T⌋ + 1)·C) is the demand of τ's jobs with release and
/// deadline inside a window of length t (Baruah & Fisher [15]).  Checked
/// first as the asymptotic utilization bound ΣU ≤ M (the t → ∞ limit), then
/// at every absolute-deadline point D_i + k·T_i up to `horizon`, each within
/// util::kTimeEpsilon.  When `horizon` is not given it defaults to
/// 2·max_i(D_i + T_i), enough to catch small-t violations that the
/// utilization bound misses.
///
/// The walk stops at L_a = Σ U_i·max(0, T_i − D_i) / (M − U).  Since
/// DBF_i(t) ≤ U_i·(t + max(0, T_i − D_i)), Σ DBF(t) ≤ U·t + Σ U_i·max(0,
/// T_i − D_i) ≤ M·t for every t ≥ L_a once U < M.  So only the points up to
/// min(horizon, L_a) are tested, in the same order and with the same running
/// sums as the walk to the horizon.  When the numerator is 0 (every D ≥ T,
/// as in every make_rt_task set) and U ≤ M, L_a is 0 and the function
/// returns true without a walk.  U in (M, M + ε], and U == M with a nonzero
/// numerator, walk to the horizon.
///
/// The verdict equals the walk to the horizon bit for bit.  Past L_a the
/// exact margin M·t − Σ DBF(t) is ≥ 0, and the walk fails a point only when
/// its computed demand exceeds M·t by more than ε = 1e-6.  The computed
/// demand and M·t err from the exact ones by at most about
/// u·M·h·(2n + K + 12) together, where u is the unit roundoff, h the
/// horizon, n the task count and K the number of deadline points up to h:
/// U, the numerator and L_a each carry O(n·u) relative error, a point
/// D + k·T carries 2u, and the running demand sum K·u.  The cap applies
/// only when twice that budget is at most ε, and only when every task has
/// C ≥ 0, D > 0 and T > 0; anything else (NaN, infinities, malformed tasks,
/// huge horizons) takes the full walk.  The generator's draws (M ≤ 8, at
/// most 80 tasks, T in [10, 1000] ms) stay below 2.3e-7.
bool dbf_necessary_condition(const std::vector<RtTask>& tasks, std::size_t num_cores,
                             std::optional<util::Millis> horizon = std::nullopt);

/// Exact worst-case response time of `task` against the higher-priority
/// interferers `hp` on the same core, via the standard fixed-point iteration
/// R = C + Σ ⌈R/T_j⌉·C_j with the sum taken in `hp` order.  Returns nullopt
/// when the iteration exceeds the deadline (unschedulable) or higher-priority
/// utilization is >= 1.
std::optional<util::Millis> response_time(const RtTiming& task, TimingSpan hp);

/// Inserts `task` after every entry of `by_priority` with period <= its own:
/// the slot rm_priority_order's stable sort gives a last-appended task.
/// Inserting a core's tasks in input order so yields its RM priority order,
/// the order core_admits_rm reads its residents in.
void insert_by_rm_priority(std::vector<RtTiming>& by_priority, const RtTiming& task);

/// Incremental admission test for partitioning loops.  `resident_by_priority`
/// must be RM-schedulable and sorted in RM priority order
/// (ascending period, earlier-placed first among equal periods — the order
/// insert_by_rm_priority maintains).  Returns whether the core stays
/// schedulable with `candidate` added.
///
/// Verdict-equivalent to core_schedulable_rm on the combined set: under
/// preemptive fixed priorities a new task cannot disturb the tasks that
/// outrank it, so only the candidate itself and the residents it preempts
/// need fresh response times.  Interference sums are accumulated in
/// the same priority order as the full test so marginal fixpoints agree
/// bit-for-bit.
bool core_admits_rm(TimingSpan resident_by_priority, const RtTiming& candidate);

/// True iff every task on one core meets its deadline under fixed-priority
/// preemptive scheduling with rate-monotonic priorities.  A set whose
/// deadlines are all at least their periods and that passes the hyperbolic
/// bound Π(Ui + 1) ≤ 2 (Bini, Buttazzo & Buttazzo) is accepted without RTA.
bool core_schedulable_rm(TimingSpan tasks_on_core);

/// Worst-case response time of a *security* task running below every RT task
/// on its core (and below the already-placed higher-priority security tasks),
/// by exact RTA.  This is the exact counterpart of the paper's linear Eq. (5)
/// bound: the bound is provably conservative w.r.t. this value (tested).
/// `period` is the security task's candidate period (= its deadline).
///
/// `interferer_sums`, when given, must equal
/// interference_bound(rt_on_core, hp_security_on_core); allocators
/// that probe many candidate periods against one core pass their incrementally
/// maintained bound so the Σ WCET / Σ utilization preamble — and the
/// utilization-overload early exit — run in O(1) instead of O(interferers)
/// per probe.  The converged response time is identical either way: the
/// fixpoint iteration seeds at or below the least fixpoint and lands on the
/// same ceil-stable sum regardless of the seed.
std::optional<util::Millis> security_response_time(
    const SecurityTask& task, util::Millis period, TimingSpan rt_on_core,
    const std::vector<PlacedSecurityTask>& hp_security_on_core,
    const InterferenceBound* interferer_sums = nullptr);

}  // namespace hydra::rt
