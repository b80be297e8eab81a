#include "core/allocator.h"

#include <limits>

#include "sec/tightness.h"
#include "util/contracts.h"

namespace hydra::core {

Allocation Allocator::allocate(const Instance& instance) const {
  // partition_rt_tasks checks M and the RT tasks; the pinned overload
  // validates the whole instance, so each path validates it once.
  const auto partition = rt::partition_rt_tasks(instance.rt_tasks, instance.num_cores);
  if (!partition.has_value()) {
    instance.validate();  // malformed security tasks throw, not read infeasible
    return infeasible_allocation(std::numeric_limits<std::size_t>::max(),
                                 "RT tasks cannot be partitioned on M cores");
  }
  return allocate(instance, *partition);
}

void validate_rt_partition(const Instance& instance, const rt::Partition& rt_partition) {
  instance.validate();
  HYDRA_REQUIRE(rt_partition.num_cores == instance.num_cores,
                "RT partition core count must match the instance");
  HYDRA_REQUIRE(rt_partition.core_of.size() == instance.rt_tasks.size(),
                "RT partition does not cover the RT task set");
  for (const std::size_t c : rt_partition.core_of) {
    HYDRA_REQUIRE(c < instance.num_cores, "RT partition names a core that does not exist");
  }
}

CoreLedger::CoreLedger(const Instance& instance, const rt::Partition& rt_partition)
    : instance_(instance), cores_(instance.num_cores) {
  validate_rt_partition(instance, rt_partition);
  for (std::size_t i = 0; i < instance.rt_tasks.size(); ++i) {
    const rt::RtTask& task = instance.rt_tasks[i];
    Core& core = cores_[rt_partition.core_of[i]];
    core.rt_tasks.push_back(rt::timing_of(task));
    core.interferers.add_interferer(task.wcet, task.period);
  }
  allocation_.rt_partition = rt_partition;
  allocation_.placements.assign(instance.security_tasks.size(), TaskPlacement{});
}

void CoreLedger::commit(std::size_t s, std::size_t core, util::Millis period) {
  const rt::SecurityTask& task = instance_.security_tasks[s];
  allocation_.placements[s] = TaskPlacement{core, period, task.period_des / period};
  Core& target = cores_[core];
  target.interferers.add_interferer(task.wcet, period);
  target.security_load += task.wcet / period;
  target.placed.push_back(rt::PlacedSecurityTask{task.wcet, period});
  target.members.push_back(s);
}

Allocation CoreLedger::finish() && {
  allocation_.feasible = true;
  return std::move(allocation_);
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
