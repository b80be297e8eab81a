// The period-adaptation-only baseline (Hasan et al.'s follow-up,
// arXiv:1911.11937): the security-task-to-core partition is FIXED by a
// placement rule that knows nothing about tightness, and all of the scheme's
// quality comes from per-core period optimization afterwards.
//
//   1. Fixed partition — each security task goes, in priority order, to the
//      first core that admits it at its loosest period Tmax (first-fit at
//      minimum mode).  No tightness information enters the placement, which
//      is exactly what separates this baseline from HYDRA's joint
//      allocation-and-adaptation and makes the Fig.-4 comparison meaningful.
//   2. Per-core period optimization — the committed Tmax periods are
//      tightened with kAdaptationRounds (2) rounds of the slack-aware
//      sequential pass shared with the Contego-style allocator
//      (`tighten_core_periods`, closed-form Eq. (7) machinery).  The `/gp`
//      variant additionally runs the joint GP optimizer (signomial SCP,
//      src/gp) over the fixed assignment and keeps whichever period vector
//      scores the higher cumulative tightness.
#pragma once

#include <string>

#include "core/allocator.h"
#include "core/instance.h"

namespace hydra::core {

struct PeriodAdaptOptions {
  /// Also optimize the fixed assignment's periods jointly (signomial SCP GP)
  /// and keep the better of the two period vectors.
  bool joint_gp = false;
};

class PeriodAdaptAllocator : public Allocator {
 public:
  explicit PeriodAdaptAllocator(PeriodAdaptOptions options = {})
      : Allocator("period-adapt"), options_(options) {}

  /// Fixed first-fit partition + per-core period optimization against an
  /// externally supplied RT partition.
  using Allocator::allocate;
  Allocation allocate(const Instance& instance,
                      const rt::Partition& rt_partition) const override;

  std::string describe() const override;

  const PeriodAdaptOptions& options() const { return options_; }

 private:
  PeriodAdaptOptions options_;
};

}  // namespace hydra::core
