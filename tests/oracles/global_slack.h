// The full global-slack engine (paper §V), kept as the test oracle of
// sim::simulate_global_band.
//
// One global timeline drives every core: RT tasks stay partitioned and own
// their core at their RM priority; security jobs wait in one global queue
// ordered by (priority, release) and, at every scheduling point, each core
// with no pending RT work takes the next one in core order.  Jobs may
// migrate between cores at preemption points (no migration cost).  Unlike
// the band engine it schedules the RT jobs itself, counts per-core busy time
// and migrations, and draws execution times below the WCET when
// exec_fraction_min < 1.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/global_slack.h"

namespace hydra::oracle {

/// A full global-slack run: every job's record plus the migration count.
struct GlobalSlackTrace : sim::Trace {
  /// Cross-core job resumptions.
  std::size_t migrations = 0;
};

/// Runs the global-slack schedule and records every job.  Inputs are not
/// re-checked: pass only what sim::simulate_global_band's validation
/// accepts (RT priorities distinct per core, band priorities distinct among
/// themselves, cores in range).  The grace is the largest deadline.
GlobalSlackTrace simulate_global_slack(const std::vector<sim::GlobalSimTask>& tasks,
                                       const sim::GlobalSimOptions& options);

}  // namespace hydra::oracle
