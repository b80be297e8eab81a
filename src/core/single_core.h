// The SingleCore comparator (paper §IV): dedicate one core to security.
//
// All RT tasks are partitioned onto cores 0..M−2; every security task is
// assigned to core M−1.  Security tasks see no RT interference (the first
// term of Eq. (5) vanishes) but still interfere with each other, which is
// exactly what degrades their periods at scale.  Periods are adapted in
// priority order with the same Eq. (7) subproblem HYDRA uses, so the two
// schemes differ only in the placement policy — the comparison the paper
// makes.
#pragma once

#include <string>

#include "core/allocator.h"
#include "core/instance.h"

namespace hydra::core {

class SingleCoreAllocator : public Allocator {
 public:
  SingleCoreAllocator() : Allocator("single-core") {}

  /// Requires M >= 2 (one core must remain for the RT workload).
  /// Infeasible when the RT tasks cannot be packed on M−1 cores or some
  /// security task admits no acceptable period on the dedicated core.
  Allocation allocate(const Instance& instance) const override;

  /// SingleCore's placement policy *is* its partition (RT on cores 0..M−2,
  /// security on core M−1), so the externally supplied hint is ignored and
  /// the scheme re-partitions; shared-partition comparisons should exclude it.
  Allocation allocate(const Instance& instance,
                      const rt::Partition& rt_partition) const override;

  std::string describe() const override;
};

}  // namespace hydra::core
