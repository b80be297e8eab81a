#include <algorithm>

#include "sim/task.h"
#include "util/contracts.h"

namespace hydra::sim {

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

std::optional<util::SimTime> Trace::first_completion_released_after(std::size_t task,
                                                                    util::SimTime t) const {
  HYDRA_REQUIRE(task < jobs.size(), "task index out of range");
  const auto& per_task = jobs[task];
  // Releases are chronological, so binary-search the first release >= t.
  const auto it = std::lower_bound(
      per_task.begin(), per_task.end(), t,
      [](const JobRecord& rec, util::SimTime value) { return rec.release < value; });
  for (auto j = it; j != per_task.end(); ++j) {
    if (j->completed) return j->completion;
  }
  return std::nullopt;
}

}  // namespace hydra::sim
