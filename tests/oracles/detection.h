// The per-(trial, monitor) detection lookup, kept as the oracle of
// sim::detect_planned_attacks, which scores a plan in one forward pass per
// monitor: here every trial binary-searches each monitor's jobs on its own,
// in draw order.
#pragma once

#include <cstddef>
#include <optional>

#include "sim/attack.h"

namespace hydra::oracle {

/// Completion time of the first completed job of `task` released at or
/// after `t`; nullopt if no such job completed within the trace.  Throws
/// std::invalid_argument when `task` has no jobs list in the trace.
std::optional<util::SimTime> first_completion_released_after(const sim::Trace& trace,
                                                             std::size_t task,
                                                             util::SimTime t);

/// sim::detect_planned_attacks by one first_completion_released_after call
/// per (trial, monitor): the worst over all monitors under kAllTasks, the
/// victim alone under kSingleTask, undetected when a needed monitor never
/// detects the trial.
sim::DetectionResult detect_by_lookup(const sim::Trace& trace, std::size_t num_rt,
                                      std::size_t num_security,
                                      const sim::DetectionConfig& config,
                                      const sim::AttackPlan& plan);

}  // namespace hydra::oracle
