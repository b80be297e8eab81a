// Independent re-validation of an allocation — recomputes Eq. (4) and
// Eq. (6) for every security task from nothing but the instance, the RT
// partition and the claimed placements.  Deliberately does not share code
// with the allocators so tests catch allocator bugs instead of reproducing
// them.  Also checks that the RT partition itself is RM-schedulable (the
// "do not perturb the real-time tasks" premise).
#pragma once

#include <string>

#include "core/instance.h"

namespace hydra::core {

struct ValidationReport {
  bool valid = false;
  std::string problem;  ///< empty when valid; first violation otherwise
};

/// Which schedulability test the allocator used (and hence which one the
/// validator must re-check): the paper's linear Eq. (5)/(6) bound, or exact
/// response-time analysis (hydra/exact-rta allocations satisfy the latter
/// but not necessarily the conservative former).
enum class ScheduleTest {
  kLinearBound,
  kExactRta,
};

/// Full check of a feasible allocation.  An infeasible allocation is vacuously
/// "valid" only if it is marked infeasible; passing one returns a report
/// saying so.  `priority_order` must match the order the allocator used
/// (absent = the paper's ascending-Tmax rule).
ValidationReport validate_allocation(
    const Instance& instance, const Allocation& allocation,
    const std::optional<std::vector<std::size_t>>& priority_order = std::nullopt,
    ScheduleTest test = ScheduleTest::kLinearBound);

}  // namespace hydra::core
