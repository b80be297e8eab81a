#include "rt/partition.h"

#include <algorithm>
#include <numeric>

#include "rt/analysis.h"
#include "util/contracts.h"

namespace hydra::rt {

std::vector<RtTask> Partition::tasks_on_core(const std::vector<RtTask>& tasks,
                                             std::size_t core) const {
  HYDRA_REQUIRE(tasks.size() == core_of.size(), "partition does not match task set");
  HYDRA_REQUIRE(core < num_cores, "core index out of range");
  std::vector<RtTask> out;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (core_of[i] == core) out.push_back(tasks[i]);
  }
  return out;
}

std::vector<double> Partition::core_utilizations(const std::vector<RtTask>& tasks) const {
  HYDRA_REQUIRE(tasks.size() == core_of.size(), "partition does not match task set");
  std::vector<double> u(num_cores, 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) u[core_of[i]] += tasks[i].utilization();
  return u;
}

namespace {

/// Inserts `task` after every resident with period <= its own, mirroring
/// where rm_priority_order's stable sort places a last-appended task.
void insert_by_priority(std::vector<RtTask>& resident_by_priority, const RtTask& task) {
  auto it = std::upper_bound(
      resident_by_priority.begin(), resident_by_priority.end(), task,
      [](const RtTask& a, const RtTask& b) { return a.period < b.period; });
  resident_by_priority.insert(it, task);
}

}  // namespace

std::optional<Partition> partition_rt_tasks(const std::vector<RtTask>& tasks,
                                            std::size_t num_cores) {
  HYDRA_REQUIRE(num_cores >= 1, "need at least one core");
  validate(tasks);

  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].utilization() > tasks[b].utilization();
  });

  Partition partition;
  partition.num_cores = num_cores;
  partition.core_of.assign(tasks.size(), 0);

  // Residents are kept in RM priority order, so core_admits_rm re-analyzes
  // only the candidate and the residents it preempts.
  std::vector<std::vector<RtTask>> residents(num_cores);
  std::vector<double> load(num_cores, 0.0);

  for (const std::size_t ti : order) {
    const RtTask& task = tasks[ti];
    std::optional<std::size_t> chosen;
    double best_load = -1.0;
    for (std::size_t c = 0; c < num_cores; ++c) {
      if (core_admits_rm(residents[c], task) && load[c] > best_load) {
        best_load = load[c];
        chosen = c;
      }
    }

    if (!chosen.has_value()) return std::nullopt;
    insert_by_priority(residents[*chosen], task);
    load[*chosen] += task.utilization();
    partition.core_of[ti] = *chosen;
  }
  return partition;
}

}  // namespace hydra::rt
