#include "rt/partition.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "rt/analysis.h"
#include "util/contracts.h"
#include "util/units.h"

namespace hydra::rt {

std::vector<double> Partition::core_utilizations(const std::vector<RtTask>& tasks) const {
  HYDRA_REQUIRE(tasks.size() == core_of.size(), "partition does not match task set");
  std::vector<double> u(num_cores, 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) u[core_of[i]] += tasks[i].utilization();
  return u;
}

namespace {

/// Best-fit decreasing itself; partition_rt_tasks below memoizes it.
std::optional<Partition> best_fit_partition(const std::vector<RtTask>& tasks,
                                            std::size_t num_cores) {
  validate(tasks);

  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].utilization() > tasks[b].utilization();
  });

  Partition partition;
  partition.num_cores = num_cores;
  partition.core_of.assign(tasks.size(), 0);

  // Residents are kept as timings in RM priority order, so core_admits_rm
  // re-analyzes only the candidate and the residents it preempts.
  std::vector<std::vector<RtTiming>> residents(num_cores);
  std::vector<double> load(num_cores, 0.0);

  for (const std::size_t ti : order) {
    const RtTiming task = timing_of(tasks[ti]);
    std::optional<std::size_t> chosen;
    double best_load = -1.0;
    for (std::size_t c = 0; c < num_cores; ++c) {
      if (core_admits_rm(residents[c], task) && load[c] > best_load) {
        best_load = load[c];
        chosen = c;
      }
    }

    if (!chosen.has_value()) return std::nullopt;
    insert_by_rm_priority(residents[*chosen], task);
    load[*chosen] += task.utilization();
    partition.core_of[ti] = *chosen;
  }
  return partition;
}

/// One memoized answer and its key: the core count and every task's C, T
/// and D, held by value.  The names are left out: they reach only the
/// messages of a set that throws, and such a set is never stored.
struct PartitionMemoEntry {
  std::size_t num_cores = 0;  ///< 0 = empty (partition_rt_tasks requires >= 1)
  std::vector<RtTiming> times;  ///< each task's timing, in input order
  std::optional<Partition> answer;

  bool matches(const std::vector<RtTask>& tasks, std::size_t cores) const {
    if (num_cores != cores || times.size() != tasks.size()) return false;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (!util::same_bits(times[i].wcet, tasks[i].wcet) ||
          !util::same_bits(times[i].period, tasks[i].period) ||
          !util::same_bits(times[i].deadline, tasks[i].deadline)) {
        return false;
      }
    }
    return true;
  }

  void store(const std::vector<RtTask>& tasks, std::size_t cores,
             std::optional<Partition> partition) {
    num_cores = cores;
    times.clear();
    for (const RtTask& task : tasks) times.push_back(timing_of(task));
    answer = std::move(partition);
  }
};

/// Partitions this thread has computed: the memo's misses.
thread_local std::size_t partitions_computed_here = 0;

}  // namespace

std::optional<Partition> partition_rt_tasks(const std::vector<RtTask>& tasks,
                                            std::size_t num_cores) {
  HYDRA_REQUIRE(num_cores >= 1, "need at least one core");

  // The last two answers of this thread, most recent first.  Two, so that a
  // unit's M-core partition outlives SingleCore's M−1-core one in between.
  // Per thread, so workers never contend; the answer is a pure function of
  // the key, so a hit changes no result.
  thread_local std::array<PartitionMemoEntry, 2> memo;
  if (!memo[0].matches(tasks, num_cores)) {
    if (!memo[1].matches(tasks, num_cores)) {
      // Computed before anything is stored: a set that throws caches nothing.
      auto answer = best_fit_partition(tasks, num_cores);
      ++partitions_computed_here;
      memo[1].store(tasks, num_cores, std::move(answer));
    }
    std::swap(memo[0], memo[1]);
  }
  return memo[0].answer;
}

std::size_t partitions_computed() { return partitions_computed_here; }

}  // namespace hydra::rt
