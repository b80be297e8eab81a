#include "oracles/detection.h"

#include <algorithm>

#include "util/contracts.h"

namespace hydra::oracle {

std::optional<util::SimTime> first_completion_released_after(const sim::Trace& trace,
                                                             std::size_t task,
                                                             util::SimTime t) {
  HYDRA_REQUIRE(task < trace.jobs.size(), "task index out of range");
  const auto& per_task = trace.jobs[task];
  // Releases are chronological, so binary-search the first release >= t.
  const auto it = std::lower_bound(
      per_task.begin(), per_task.end(), t,
      [](const sim::JobRecord& rec, util::SimTime value) { return rec.release < value; });
  for (auto j = it; j != per_task.end(); ++j) {
    if (j->completed) return j->completion;
  }
  return std::nullopt;
}

sim::DetectionResult detect_by_lookup(const sim::Trace& trace, std::size_t nr,
                                      std::size_t ns, const sim::DetectionConfig& config,
                                      const sim::AttackPlan& plan) {
  sim::DetectionResult result;
  result.deadline_misses = trace.deadline_misses();
  for (const sim::AttackTrial& trial : plan.trials()) {
    std::optional<util::SimTime> detected_at;
    if (config.scope == sim::AttackScope::kSingleTask) {
      detected_at = first_completion_released_after(trace, nr + trial.victim, trial.at);
    } else {
      // Worst case over all monitors: the last fresh scan to complete.
      detected_at = 0;
      for (std::size_t s = 0; s < ns && detected_at.has_value(); ++s) {
        const auto done = first_completion_released_after(trace, nr + s, trial.at);
        detected_at = done.has_value() ? std::optional(std::max(*detected_at, *done))
                                       : std::nullopt;
      }
    }
    if (detected_at.has_value()) {
      result.detection_ms.push_back(util::to_millis(*detected_at - trial.at));
    } else {
      ++result.undetected;
    }
  }
  return result;
}

}  // namespace hydra::oracle
