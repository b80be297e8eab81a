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
// Unlike the partitioned loop (sim::simulate, simulate_mode_switching) this
// cannot simulate cores independently: one global timeline drives all cores.
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

struct GlobalSimOptions {
  util::SimTime horizon = 0;
  util::SimTime grace = 0;  ///< 0 = auto (largest deadline)
  std::size_t num_cores = 0;
};

/// Runs the global-slack schedule.  RT (non-global) tasks must carry distinct
/// priorities per core; global tasks must carry distinct priorities among
/// themselves.  Returns the same Trace shape as sim::simulate.
Trace simulate_global_slack(const std::vector<GlobalSimTask>& tasks,
                            const GlobalSimOptions& options);

class RtSlackProfileCache;

/// The same run with the RT schedule taken from an RT slack profile
/// (sim/slack_profile.h): the non-global tasks are scheduled once by the
/// profile, and the global band is scheduled on the cores' idle gaps,
/// stepping over gap edges only while a band job is pending.  Ready band
/// jobs go by (priority, release), as in simulate_global_slack.  Every band
/// JobRecord and deadline_misses() equal simulate_global_slack's; the trace
/// records only the band's jobs (RT misses are in Trace::unrecorded_misses;
/// core_busy and migrations stay 0).  Validates like simulate_global_slack
/// and asks `profiles` for the profile only after that, then additionally
/// requires (std::invalid_argument): WCET-exact tasks and a grace of at
/// least every RT deadline.
Trace simulate_global_band(const std::vector<GlobalSimTask>& tasks,
                           const GlobalSimOptions& options, RtSlackProfileCache& profiles);

}  // namespace hydra::sim
