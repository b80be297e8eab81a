// Runtime task descriptors and per-job records for the discrete-event
// simulator.  The simulator replaces the paper's ARM Cortex-A8 + Xenomai
// testbed (docs/architecture.md, "Substitutions and modelling choices",
// S6): it executes a partitioned fixed-priority
// preemptive schedule at microsecond resolution.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "util/units.h"

namespace hydra::sim {

/// A task as the simulator sees it: fully resolved (period fixed, core
/// fixed, distinct priority).  Releases are strictly periodic from
/// `release_offset` — the worst-case arrival pattern of a sporadic task.
struct SimTask {
  std::string name;
  util::SimTime wcet = 0;            ///< execution budget per job (ticks)
  util::SimTime period = 0;          ///< minimum inter-release separation (ticks)
  util::SimTime deadline = 0;        ///< relative deadline (ticks)
  std::size_t core = 0;              ///< partitioned: fixed core
  int priority = 0;                  ///< smaller value = higher priority
  util::SimTime release_offset = 0;  ///< first release time
  /// Each job executes wcet·U(exec_fraction_min, 1] — models actual execution
  /// times below the worst case.  1.0 = always the WCET (analysis-faithful).
  double exec_fraction_min = 1.0;
};

/// Jobs a task releases strictly before `horizon` when it releases at
/// `offset` and then every `period` ticks.
inline std::size_t releases_before(util::SimTime horizon, util::SimTime offset,
                                   util::SimTime period) {
  return offset < horizon ? static_cast<std::size_t>((horizon - offset - 1) / period + 1) : 0;
}

/// The per-task input rules every engine shares: positive WCET, period and
/// deadline, WCET <= deadline, and a finite exec_fraction_min in [0, 1].
/// Throws std::invalid_argument naming the task otherwise.
void check_task(const SimTask& task);

/// The per-core rule of the partitioned engines: `priorities`, those of the
/// tasks on `core` in any order, are distinct.  Throws
/// std::invalid_argument naming the core otherwise.
void check_distinct_priorities(std::vector<int> priorities, std::size_t core);

/// What happened to one job.
struct JobRecord {
  util::SimTime release = 0;
  util::SimTime start = 0;       ///< first time the job got the CPU
  util::SimTime completion = 0;  ///< valid iff completed
  bool completed = false;
  bool deadline_missed = false;  ///< completed after release + deadline (or never)
};

/// A contiguous stretch of execution of one job on one core.
struct ExecutionSegment {
  std::size_t task = 0;
  std::size_t core = 0;
  util::SimTime from = 0;
  util::SimTime to = 0;
};

/// Per-task job history plus core-level accounting.
struct Trace {
  std::vector<std::vector<JobRecord>> jobs;  ///< jobs[task_index], release order
  std::vector<util::SimTime> core_busy;      ///< busy ticks per core
  util::SimTime horizon = 0;
  /// Execution intervals in chronological order per core; filled only when
  /// the engine is asked to record them (SimOptions::record_segments).
  std::vector<ExecutionSegment> segments;
  /// Deadline misses of jobs this trace does not record in `jobs`.  The band
  /// engines (sim/slack_profile.h) record only the monitors' jobs and carry
  /// the RT misses of the shared profile here; the full runs leave it 0.
  std::size_t unrecorded_misses = 0;

  std::size_t total_jobs() const;
  /// Missed jobs in `jobs` plus unrecorded_misses.
  std::size_t deadline_misses() const;

  /// Observed response times (completion − release) of `task`'s completed
  /// jobs, in milliseconds.  The empirical counterpart of response-time
  /// analysis: observed max ≤ analytic bound on any feasible system.
  std::vector<double> response_times_ms(std::size_t task) const;

  /// Largest observed response time of `task`; nullopt if no job completed.
  std::optional<double> max_response_time_ms(std::size_t task) const;
};

}  // namespace hydra::sim
