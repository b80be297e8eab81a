// The RT partitioner and the allocation validator in their named-task form:
// every core's RT tasks copied as rt::RtTask vectors, the RM test run on
// those copies, and a local interferer list built for every monitor.  The
// production code reads name-free rt::RtTiming records instead.  Kept as a
// differential oracle: on every input, the production code must give the
// same core_of and the same ValidationReport (verdict and problem text),
// which pins its summation orders and the order of its checks.
//
// Self-contained on purpose: the RM analysis is copied here too, so a change
// to the production fixpoint cannot move the oracle along with it.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/instance.h"
#include "core/validation.h"
#include "rt/partition.h"
#include "rt/task.h"

namespace hydra::oracle {

/// The timings of the tasks `partition` puts on `core`, in input order, for
/// calls into the production analysis.
std::vector<rt::RtTiming> timings_on_core(const std::vector<rt::RtTask>& tasks,
                                          const rt::Partition& partition, std::size_t core);

/// Best-fit decreasing over named-task residents, without the memo:
/// rt::partition_rt_tasks must return the same partition.
std::optional<rt::Partition> named_best_fit_partition(const std::vector<rt::RtTask>& tasks,
                                                      std::size_t num_cores);

/// core::validate_allocation over named per-core and per-monitor copies:
/// the production report must equal this one, verdict and text.
core::ValidationReport named_validate_allocation(
    const core::Instance& instance, const core::Allocation& allocation,
    const std::optional<std::vector<std::size_t>>& priority_order = std::nullopt,
    core::ScheduleTest test = core::ScheduleTest::kLinearBound);

}  // namespace hydra::oracle
