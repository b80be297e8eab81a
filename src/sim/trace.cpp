#include <algorithm>
#include <string>
#include <utility>

#include "sim/task.h"
#include "util/contracts.h"

namespace hydra::sim {

void check_task(const SimTask& t) {
  HYDRA_REQUIRE(t.wcet > 0 && t.period > 0 && t.deadline > 0,
                "task '" + t.name + "' needs positive WCET/period/deadline");
  HYDRA_REQUIRE(t.wcet <= t.deadline, "task '" + t.name + "' has WCET > deadline");
  // The range test fails for NaN too: the engines draw from
  // U(exec_fraction_min, 1] and convert the result to ticks.
  HYDRA_REQUIRE(t.exec_fraction_min >= 0.0 && t.exec_fraction_min <= 1.0,
                "task '" + t.name + "' has exec_fraction_min outside [0, 1]");
}

void check_distinct_priorities(std::vector<int> priorities, std::size_t core) {
  std::sort(priorities.begin(), priorities.end());
  HYDRA_REQUIRE(std::adjacent_find(priorities.begin(), priorities.end()) == priorities.end(),
                "duplicate priority on core " + std::to_string(core));
}

std::size_t Trace::total_jobs() const {
  std::size_t n = 0;
  for (const auto& per_task : jobs) n += per_task.size();
  return n;
}

std::size_t Trace::deadline_misses() const {
  std::size_t n = unrecorded_misses;
  for (const auto& per_task : jobs) {
    for (const auto& rec : per_task) {
      if (rec.deadline_missed) ++n;
    }
  }
  return n;
}

std::vector<double> Trace::response_times_ms(std::size_t task) const {
  HYDRA_REQUIRE(task < jobs.size(), "task index out of range");
  std::vector<double> out;
  out.reserve(jobs[task].size());
  for (const auto& rec : jobs[task]) {
    if (rec.completed) out.push_back(hydra::util::to_millis(rec.completion - rec.release));
  }
  return out;
}

std::optional<double> Trace::max_response_time_ms(std::size_t task) const {
  const auto all = response_times_ms(task);
  if (all.empty()) return std::nullopt;
  return *std::max_element(all.begin(), all.end());
}

}  // namespace hydra::sim
