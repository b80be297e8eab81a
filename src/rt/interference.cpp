#include "rt/interference.h"

#include "util/contracts.h"

namespace hydra::rt {

void InterferenceBound::add_interferer(util::Millis wcet, util::Millis period) {
  HYDRA_REQUIRE(wcet > 0.0 && period > 0.0, "interferer needs positive WCET and period");
  const_part += wcet;
  util_part += wcet / period;
}

InterferenceBound interference_bound(TimingSpan rt_on_core,
                                     const std::vector<PlacedSecurityTask>& hp_security_on_core) {
  InterferenceBound bound;
  for (const auto& r : rt_on_core) bound.add_interferer(r.wcet, r.period);
  for (const auto& h : hp_security_on_core) bound.add_interferer(h.wcet, h.period);
  return bound;
}

bool security_schedulable(const SecurityTask& task, util::Millis period,
                          const InterferenceBound& bound) {
  return util::leq_tol(task.wcet + bound.eval(period), period);
}

}  // namespace hydra::rt
