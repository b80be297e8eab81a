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
//      shrunk toward Tdes with the slack-aware pass in period_adaptation.h
//      (`tighten_core_periods`): a monitor only tightens as far as its own
//      Eq. (7) bound and the feasibility of every lower-priority monitor on
//      that core allow, so the result is feasible by construction and every
//      final period sits between the two Contego modes.
//
// The `contego/no-adapt` registry ablation stops after step 1 (everything in
// minimum mode) and is the lower anchor of the period-mode monotonicity
// property test.
#pragma once

#include <string>

#include "core/allocator.h"
#include "core/instance.h"
#include "core/period_adaptation.h"

namespace hydra::core {

struct ContegoOptions {
  PeriodSolver solver = PeriodSolver::kClosedForm;
  /// false = minimum-mode placement only (the "/no-adapt" ablation).
  bool adapt = true;
  /// Tightening passes per core; more rounds only tighten further (the pass
  /// is monotone), with quickly diminishing returns.
  std::size_t adaptation_rounds = 2;
};

class ContegoAllocator : public Allocator {
 public:
  explicit ContegoAllocator(ContegoOptions options = {})
      : Allocator("contego"), options_(options) {}

  /// Minimum-mode placement + per-core tightening against an externally
  /// supplied RT partition (same contract as HydraAllocator::allocate).
  Allocation allocate(const Instance& instance,
                      const rt::Partition& rt_partition) const override;

  /// Best-fit-partitions the RT tasks over all M cores first.
  Allocation allocate(const Instance& instance) const override;

  std::string describe() const override;

  const ContegoOptions& options() const { return options_; }

 private:
  ContegoOptions options_;
};

}  // namespace hydra::core
