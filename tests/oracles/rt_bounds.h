// Closed-form uniprocessor tests that the production analysis does not use,
// kept as oracles against it: the demand bound function of one task (the
// summand of the paper's Eq. 1, checked against
// rt::dbf_necessary_condition), the uncapped Eq. (1) deadline walk (checked
// against the same function's L_a-capped walk), and the Liu–Layland and
// hyperbolic sufficient RM bounds (checked against exact RTA,
// rt::core_schedulable_rm).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "rt/task.h"
#include "util/units.h"

namespace hydra::oracle {

/// DBF(τ, t) = max(0, (⌊(t − D)/T⌋ + 1)·C): the maximum cumulative execution
/// demand of jobs of τ with both release and deadline inside any window of
/// length t (Baruah & Fisher [15]).
double dbf(const rt::RtTask& task, util::Millis t);

/// rt::dbf_necessary_condition without its L_a stop: the utilization check,
/// then every absolute-deadline point up to the horizon (default
/// 2·max_i(D_i + T_i)), in the same order and with the same floating-point
/// running sums.  The production verdict must equal this one bit for bit.
bool dbf_necessary_condition_full_walk(const std::vector<rt::RtTask>& tasks,
                                       std::size_t num_cores,
                                       std::optional<util::Millis> horizon = std::nullopt);

/// Liu–Layland utilization bound n·(2^{1/n} − 1) for n tasks [14].
double liu_layland_bound(std::size_t n);

/// Hyperbolic bound (Bini, Buttazzo & Buttazzo): Π(Ui + 1) ≤ 2 is sufficient
/// for RM schedulability and strictly dominates the Liu–Layland test.  The
/// product may exceed 2 by util::kTimeEpsilon (the admission fast path in
/// rt/analysis.cpp uses the strict form).
bool hyperbolic_bound_holds(const std::vector<rt::RtTask>& tasks);

}  // namespace hydra::oracle
