// The partitioned fixed-priority schedule of one frozen period vector.
//
// Cores are independent under partitioned scheduling with independent tasks,
// so each core's timeline is simulated separately: at every scheduling point
// (release or completion) the highest-priority ready job runs (a task's
// backlogged jobs in release order); non-preemptive jobs, once started, run
// to completion regardless of later higher-priority releases (paper §V
// extension), and the releases they hold back are admitted in release-time
// order.  simulate is the fixed-rate, controller-free case of the
// mode-switching engine's per-core loop (sim/mode_switch.cpp defines it).
#pragma once

#include <vector>

#include "sim/task.h"

namespace hydra::sim {

struct SimOptions {
  util::SimTime horizon = 0;  ///< jobs are released strictly before this time
  /// Completion grace: jobs released before the horizon may finish up to
  /// horizon + grace; anything still unfinished is recorded as incomplete
  /// (and counted as a deadline miss).  Keeps overloaded inputs terminating.
  /// 0 = auto (the largest task deadline).
  util::SimTime grace = 0;
  /// Seed for release jitter and execution-time variation.  Tasks with
  /// jitter 0 and exec_fraction_min 1.0 are unaffected — the schedule is
  /// fully deterministic then.
  std::uint64_t seed = 0x5eed;
  /// Record per-core execution intervals in Trace::segments (for Gantt
  /// rendering and CSV export).  Costs memory proportional to preemptions;
  /// keep off for long experiment horizons.
  bool record_segments = false;
};

/// Runs the schedule.  Tasks must pass check_task and have distinct
/// priorities per core (throws std::invalid_argument otherwise).
Trace simulate(const std::vector<SimTask>& tasks, const SimOptions& options);

}  // namespace hydra::sim
