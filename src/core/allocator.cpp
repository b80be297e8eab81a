#include "core/allocator.h"

#include <limits>

#include "sec/tightness.h"

namespace hydra::core {

Allocation Allocator::allocate_with_default_partition(const Instance& instance) const {
  instance.validate();
  const auto partition = rt::partition_rt_tasks(instance.rt_tasks, instance.num_cores);
  if (!partition.has_value()) {
    return infeasible_allocation(std::numeric_limits<std::size_t>::max(),
                                 "RT tasks cannot be partitioned on M cores");
  }
  return allocate(instance, *partition);
}

namespace {

DesignPoint finish(const Allocator& scheme, const Instance& instance,
                   Allocation allocation) {
  DesignPoint point;
  point.scheme = scheme.name();
  point.allocation = std::move(allocation);
  if (point.allocation.feasible) {
    point.cumulative_tightness =
        point.allocation.cumulative_tightness(instance.security_tasks);
    const double upper = sec::max_cumulative_tightness(instance.security_tasks);
    point.normalized_tightness = upper > 0.0 ? point.cumulative_tightness / upper : 0.0;
    const auto report =
        validate_allocation(instance, point.allocation, scheme.priority_order(),
                            scheme.schedule_test());
    point.validated = report.valid;
    point.validation_problem = report.problem;
  }
  return point;
}

}  // namespace

DesignPoint evaluate_scheme(const Allocator& scheme, const Instance& instance) {
  return finish(scheme, instance, scheme.allocate(instance));
}

DesignPoint evaluate_scheme(const Allocator& scheme, const Instance& instance,
                            const rt::Partition& rt_partition) {
  return finish(scheme, instance, scheme.allocate(instance, rt_partition));
}

}  // namespace hydra::core
