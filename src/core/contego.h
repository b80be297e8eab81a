// Contego-style adaptive allocation (Hasan et al., arXiv:1705.00138).
//
// Contego runs each security monitor in one of two modes: a *minimum* mode at
// the loosest acceptable period Tmax (always-on baseline coverage) and a
// *best* mode at the desired period Tdes, switching opportunistically when
// the system has slack.  The static design-time analog implemented here:
//
//   1. Minimum-mode placement — every security task is admitted at Tmax,
//      worst-fit by total core utilization, so the load is spread and each
//      core retains the largest residual slack for the adaptation step.
//      (Admission solves the same Eq. (7) subproblem HYDRA uses; a task no
//      core can host even at Tmax makes the set unschedulable.)
//   2. Opportunistic tightening — on each core the committed periods are
//      shrunk toward Tdes with kAdaptationRounds (2) rounds of the
//      slack-aware pass in period_adaptation.h (`tighten_core_periods`): a
//      monitor only tightens as far as its own Eq. (7) bound and the
//      feasibility of every lower-priority monitor on that core allow, so
//      the result is feasible by construction and every final period sits
//      between the two Contego modes.
//
// Step 1 alone (everything in minimum mode) is min_mode_allocation of the
// result: tightening never moves a monitor's core.
#pragma once

#include <string>

#include "core/allocator.h"
#include "core/instance.h"

namespace hydra::core {

class ContegoAllocator : public Allocator {
 public:
  ContegoAllocator() : Allocator("contego") {}

  /// Minimum-mode placement + per-core tightening against an externally
  /// supplied RT partition (same contract as HydraAllocator::allocate).
  using Allocator::allocate;
  Allocation allocate(const Instance& instance,
                      const rt::Partition& rt_partition) const override;

  std::string describe() const override;
};

}  // namespace hydra::core
