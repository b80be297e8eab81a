#include "rt/task.h"

#include <cmath>

namespace hydra::rt {

void validate(const RtTask& task) {
  HYDRA_REQUIRE(std::isfinite(task.wcet) && task.wcet > 0.0,
                "RT task '" + task.name + "': WCET must be positive");
  HYDRA_REQUIRE(std::isfinite(task.period) && task.period > 0.0,
                "RT task '" + task.name + "': period must be positive");
  HYDRA_REQUIRE(std::isfinite(task.deadline) && task.deadline > 0.0,
                "RT task '" + task.name + "': deadline must be positive");
  HYDRA_REQUIRE(task.wcet <= task.deadline,
                "RT task '" + task.name + "': WCET exceeds deadline");
  HYDRA_REQUIRE(task.deadline <= task.period,
                "RT task '" + task.name + "': constrained deadlines only (D <= T)");
}

void validate(const SecurityTask& task) {
  HYDRA_REQUIRE(std::isfinite(task.wcet) && task.wcet > 0.0,
                "security task '" + task.name + "': WCET must be positive");
  HYDRA_REQUIRE(std::isfinite(task.period_des) && task.period_des > 0.0,
                "security task '" + task.name + "': desired period must be positive");
  HYDRA_REQUIRE(std::isfinite(task.period_max) && task.period_max >= task.period_des,
                "security task '" + task.name + "': Tmax must be >= Tdes");
  HYDRA_REQUIRE(task.wcet <= task.period_des,
                "security task '" + task.name + "': WCET exceeds desired period");
  HYDRA_REQUIRE(std::isfinite(task.weight) && task.weight > 0.0,
                "security task '" + task.name + "': weight must be positive");
}

void validate(const std::vector<RtTask>& tasks) {
  for (const auto& t : tasks) validate(t);
}

void validate(const std::vector<SecurityTask>& tasks) {
  for (const auto& t : tasks) validate(t);
}

std::vector<RtTiming> timings_of(const std::vector<RtTask>& tasks) {
  std::vector<RtTiming> out;
  out.reserve(tasks.size());
  for (const auto& t : tasks) out.push_back(timing_of(t));
  return out;
}

double total_utilization(const std::vector<RtTask>& tasks) {
  double u = 0.0;
  for (const auto& t : tasks) u += t.utilization();
  return u;
}

double total_max_utilization(const std::vector<SecurityTask>& tasks) {
  double u = 0.0;
  for (const auto& t : tasks) u += t.max_utilization();
  return u;
}

}  // namespace hydra::rt
