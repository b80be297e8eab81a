// Partitioned multiprocessor assignment of RT tasks (Davis & Burns survey
// [13]).  The paper assumes the RT tasks are already partitioned; its
// synthetic evaluation (§IV-B) uses best-fit, and the SingleCore comparator
// packs RT tasks on M−1 cores.  Admission on each core uses exact RTA under
// rate-monotonic priorities, not just a utilization bound.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "rt/task.h"

namespace hydra::rt {

/// A completed RT partition: core_of[i] is the core (0-based) of task i.
struct Partition {
  std::size_t num_cores = 0;
  std::vector<std::size_t> core_of;

  /// Per-core total utilization.
  std::vector<double> core_utilizations(const std::vector<RtTask>& tasks) const;
};

/// Partitions `tasks` over `num_cores` cores by best-fit decreasing: tasks
/// in decreasing utilization (stable, so equal utilizations keep input
/// order), each onto the most loaded core that stays RM-schedulable by exact
/// RTA; equal loads go to the lowest core index.  Returns nullopt when some
/// task fits on no core.
///
/// Each thread remembers its last two answers.  The key is held by value and
/// compared bit for bit: `num_cores` and every task's wcet, period and
/// deadline, in order.  Names are left out, since they appear only in the
/// messages of a set that throws, and a call that throws stores nothing.  So
/// the schemes of one sweep unit share its M-core partition (SingleCore's
/// M−1-core one sits in the second entry) and a hit changes no result.
std::optional<Partition> partition_rt_tasks(const std::vector<RtTask>& tasks,
                                            std::size_t num_cores);

/// Partitions the calling thread has computed, i.e. the memo's misses; a
/// call answered from the memo leaves it unchanged.
std::size_t partitions_computed();

}  // namespace hydra::rt
