// Global slack scheduling of security jobs (paper §V: "security tasks can
// also move across multiple cores if there is available slack at runtime (for
// faster detection and better schedulability)").
//
// Model: RT tasks stay partitioned and always own their core at their RM
// priority.  Security jobs live in one *global* ready queue ordered by
// security priority, backlogged jobs of one task by release; at every
// scheduling point each core that has no pending RT work, in core order,
// picks the highest-priority unserved security job.  Security jobs
// may migrate between cores at preemption points (job-level migration, no
// migration cost — the optimistic end of the design space; the bench
// quantifies the gap to HYDRA's static placement).
//
// The RT schedule comes from an RT slack profile (sim/slack_profile.h), so
// only the band is scheduled here, on the idle gaps the profile leaves.  The
// full engine, which also schedules the RT jobs on one global timeline, is
// test-only (tests/oracles/global_slack.h): test_slack_band checks this
// engine against it job for job.
#pragma once

#include <vector>

#include "sim/task.h"

namespace hydra::sim {

/// Inputs mirror build_sim_tasks' output: `tasks[i].core` is honoured for RT
/// tasks; for tasks flagged `global_band` the core field is ignored.
struct GlobalSimTask {
  SimTask task;
  bool global_band = false;  ///< true: security job, may run on any core
};

/// Jobs still unfinished at horizon + the largest task deadline are cut off
/// (incomplete, counted as deadline misses).
struct GlobalSimOptions {
  util::SimTime horizon = 0;
  std::size_t num_cores = 0;
};

class RtSlackProfileCache;

/// Runs the global-slack schedule with the RT schedule taken from an RT
/// slack profile: the non-global tasks are scheduled once by the profile,
/// and the global band is scheduled on the cores' idle gaps, stepping over
/// gap edges only while a band job is pending, and over an RT core's edges
/// only while the pending jobs outnumber the cores without RT tasks (until
/// then every pending job runs).  The RT cores are read through forward
/// cursors, which walk their releases only around those stretches.  Ready
/// band jobs go by (priority, release).  Every band JobRecord and deadline_misses() equal
/// the full engine's; the trace records only the band's jobs (RT misses are
/// in Trace::unrecorded_misses; core_busy stays 0).
///
/// Validates first, throwing std::invalid_argument: a positive horizon, at
/// least one core, every task passing check_task, RT tasks on existing
/// cores with priorities distinct per core, and band priorities distinct
/// among themselves.  Asks `profiles` for the profile only after that, then
/// additionally requires WCET-exact tasks.
Trace simulate_global_band(const std::vector<GlobalSimTask>& tasks,
                           const GlobalSimOptions& options, RtSlackProfileCache& profiles);

}  // namespace hydra::sim
