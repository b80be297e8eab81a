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

#include <cstddef>
#include <string>

#include "core/allocator.h"
#include "core/instance.h"
#include "core/joint_period.h"
#include "rt/partition.h"

namespace hydra::core {

struct OptimalOptions {
  JointPeriodOptions joint;  ///< per-assignment period optimization
  /// Hard cap on M^NS enumerations; exceeding it throws std::invalid_argument
  /// so a misconfigured sweep fails fast instead of running for hours.
  std::size_t max_assignments = 1u << 20;
};

class OptimalAllocator : public Allocator {
 public:
  explicit OptimalAllocator(OptimalOptions options = {})
      : Allocator("optimal"), options_(options) {}

  /// Exhaustive search against an externally supplied RT partition (same
  /// contract as HydraAllocator::allocate).
  Allocation allocate(const Instance& instance,
                      const rt::Partition& rt_partition) const override;

  /// Best-fit-partitions the RT tasks over all M cores first.
  Allocation allocate(const Instance& instance) const override;

  std::string describe() const override;
  util::Millis blocking() const override { return options_.joint.blocking; }
  /// M^NS: the number of assignments the exhaustive search enumerates.
  double search_space(const Instance& instance) const override;

  const OptimalOptions& options() const { return options_; }

 private:
  OptimalOptions options_;
};

}  // namespace hydra::core
