#include "oracles/rt_bounds.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace hydra::oracle {

double dbf(const rt::RtTask& task, util::Millis t) {
  if (t < task.deadline) return 0.0;
  const double jobs = std::floor((t - task.deadline) / task.period) + 1.0;
  return jobs * task.wcet;
}

bool dbf_necessary_condition_full_walk(const std::vector<rt::RtTask>& tasks,
                                       std::size_t num_cores,
                                       std::optional<util::Millis> horizon) {
  if (tasks.empty()) return true;
  const double m = static_cast<double>(num_cores);
  if (rt::total_utilization(tasks) > m + util::kTimeEpsilon) return false;

  util::Millis h = 0.0;
  if (horizon.has_value()) {
    h = *horizon;
  } else {
    for (const auto& task : tasks) h = std::max(h, 2.0 * (task.deadline + task.period));
  }

  // One checkpoint stream D_i + k·T_i per task, merged through a binary
  // min-heap; coincident checkpoints are drained before the test.
  const std::size_t n = tasks.size();
  std::vector<util::Millis> next(n);
  std::vector<std::uint64_t> jobs(n, 0);
  std::vector<std::size_t> heap;
  heap.reserve(n);
  const auto later = [&](std::size_t a, std::size_t b) { return next[a] > next[b]; };
  for (std::size_t i = 0; i < n; ++i) {
    if (tasks[i].deadline <= h) {
      next[i] = tasks[i].deadline;
      heap.push_back(i);
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);

  double demand = 0.0;
  while (!heap.empty()) {
    const util::Millis t = next[heap.front()];
    do {
      std::pop_heap(heap.begin(), heap.end(), later);
      const std::size_t i = heap.back();
      demand += tasks[i].wcet;
      ++jobs[i];
      next[i] = tasks[i].deadline + static_cast<double>(jobs[i]) * tasks[i].period;
      if (next[i] <= h) {
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        heap.pop_back();
      }
    } while (!heap.empty() && next[heap.front()] == t);
    if (demand > m * t + util::kTimeEpsilon) return false;
  }
  return true;
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
