#include "oracles/rt_bounds.h"

#include <cmath>

namespace hydra::oracle {

double dbf(const rt::RtTask& task, util::Millis t) {
  if (t < task.deadline) return 0.0;
  const double jobs = std::floor((t - task.deadline) / task.period) + 1.0;
  return jobs * task.wcet;
}

double liu_layland_bound(std::size_t n) {
  if (n == 0) return 1.0;
  const double nd = static_cast<double>(n);
  return nd * (std::pow(2.0, 1.0 / nd) - 1.0);
}

bool hyperbolic_bound_holds(const std::vector<rt::RtTask>& tasks) {
  double product = 1.0;
  for (const auto& t : tasks) product *= t.utilization() + 1.0;
  return product <= 2.0 + util::kTimeEpsilon;
}

}  // namespace hydra::oracle
