// Utilization-aware worst-fit placement: place by security-utilization load
// instead of tightness.
//
// HYDRA picks the core on which the candidate task achieves the best
// tightness (an Eq.-(7) solve per core).  The classic bin-packing intuition
// says the *load* should drive placement instead: worst-fit spreads the
// security utilization so every core keeps slack for later tasks.  The scheme
// solves the same Eq. (7) subproblem for the committed period — only the core
// choice differs — which isolates exactly the placement policy in the Fig.-4
// comparison (it ranks by the security load alone, not by total RT + security
// utilization).
//
// This file is also the worked example of docs/allocator-authoring.md: a
// complete scheme against the core::Allocator contract in ~80 lines.
#pragma once

#include <string>

#include "core/allocator.h"
#include "core/instance.h"

namespace hydra::core {

class UtilFitAllocator : public Allocator {
 public:
  UtilFitAllocator() : Allocator("util/worst-fit") {}

  /// Security-utilization-driven placement against an externally supplied RT
  /// partition (same contract as HydraAllocator::allocate).
  using Allocator::allocate;
  Allocation allocate(const Instance& instance,
                      const rt::Partition& rt_partition) const override;

  std::string describe() const override;
};

}  // namespace hydra::core
