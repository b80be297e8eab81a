// The 'Optimal' comparator (paper §IV-B.2): exhaustive search over all M^NS
// security-task-to-core assignments; for each assignment the period vector is
// optimized jointly (core/joint_period).  Exponential in NS — the paper (and
// this library) uses it only on small instances (M = 2, NS ≤ 6, Fig. 3).
//
// The search is best-first and bound-pruned: every assignment is first
// bounded without a solve (joint_tightness_bound), then solved highest bound
// first, skipping any whose bound cannot beat the incumbent.  The answer is
// the one a plain enumeration in code order would return (lowest code on
// ties), provided each joint solve is a pure function of its assignment.
#pragma once

#include <string>

#include "core/allocator.h"
#include "core/instance.h"
#include "rt/partition.h"

namespace hydra::core {

class OptimalAllocator : public Allocator {
 public:
  OptimalAllocator() : Allocator("optimal") {}

  /// Exhaustive search against an externally supplied RT partition (same
  /// contract as HydraAllocator::allocate).  Throws std::invalid_argument
  /// when M^NS exceeds 2^20 assignments, so a misconfigured caller fails
  /// fast instead of running for hours.
  using Allocator::allocate;
  Allocation allocate(const Instance& instance,
                      const rt::Partition& rt_partition) const override;

  std::string describe() const override;
  /// M^NS: the number of assignments the exhaustive search enumerates.
  double search_space(const Instance& instance) const override;
};

}  // namespace hydra::core
