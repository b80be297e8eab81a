// The RT schedule's idle time, computed once and shared by every monitor
// run on top of it.
//
// Monitors rank below every RT task on their core, run exactly their WCET
// and are released strictly periodically (sim::build_sim_tasks and
// sim::build_mode_tasks always build them that way).  Under those
// preconditions the RT schedule does not depend on the monitors at all: RT
// jobs preempt a monitor the instant they are released, and nothing draws
// from an RNG.  So the RT schedule can be computed ONCE, its busy intervals
// merged per core, and each monitor run — static, minimum mode, every
// controller policy, global slack — reduced to scheduling the security band
// on the idle time that profile leaves.  The band engines
// (sim::simulate_mode_band, sim::simulate_global_band) reproduce the monitor
// jobs of the full engines (sim::simulate_mode_switching, and the test-only
// global engine in tests/oracles) tick for tick; test_slack_band is the
// differential check (docs/architecture.md, "Detection: one RT profile per
// row").
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/task.h"

namespace hydra::sim {

/// Merged RT busy intervals per core plus their idle-time prefix.
///
/// The idle axis of a core counts only the ticks no RT job runs on: idle
/// position x is the x-th idle tick.  idle_before(t) maps real time to the
/// idle axis, time_at_idle(x) maps back.
class RtSlackProfile {
 public:
  /// The RT schedule of `rt_tasks` alone over `horizon`, one core at a
  /// time, drained of every backlog.  A core whose tasks pass exact
  /// integer-tick response-time analysis with R <= min(D, T) misses no
  /// deadline (docs/architecture.md, "Detection: one RT profile per row"),
  /// so only the other cores are simulated with sim::simulate, with enough
  /// grace to drain every backlog, to count their misses.  A consumer whose
  /// hard stop is at least horizon + its largest RT deadline therefore sees
  /// exactly deadline_misses() RT misses: a job still running at that stop
  /// has passed its deadline in both runs.  The busy intervals are the busy
  /// periods of the released work: the engine is work-conserving, so a core
  /// is busy exactly while some released job is unfinished.  Requires every
  /// task to be WCET-exact (exec_fraction_min == 1), so the schedule draws
  /// nothing from the RNG and fits any consumer's seed; invalid tasks and
  /// duplicate priorities on a core throw sim::simulate's messages.
  RtSlackProfile(std::vector<SimTask> rt_tasks, util::SimTime horizon);

  /// True when this profile is the schedule of `rt_tasks` over `horizon`
  /// (every field the schedule depends on matches; names are ignored).
  bool matches(const std::vector<SimTask>& rt_tasks, util::SimTime horizon) const;

  /// RT jobs that missed their deadline (or never completed) in the drained
  /// schedule.
  std::size_t deadline_misses() const { return deadline_misses_; }

  /// Cores whose RT tasks the analysis could not certify, so that counting
  /// their misses took a simulation.
  std::size_t simulated_cores() const { return simulated_cores_; }

  /// Idle ticks of `core` in [0, t).  A core without RT tasks is always idle.
  util::SimTime idle_before(std::size_t core, util::SimTime t) const;

  /// The earliest real time at which `x` idle ticks of `core` have passed:
  /// the smallest t with idle_before(core, t) >= x.  A job that needs its
  /// x-th idle tick completes at time_at_idle(core, x).
  util::SimTime time_at_idle(std::size_t core, util::SimTime x) const;

  /// One merged RT busy interval [from, to) and the busy ticks before it.
  struct Busy {
    util::SimTime from = 0;
    util::SimTime to = 0;
    util::SimTime busy_before = 0;
  };

  /// The merged busy intervals of `core`, chronological and disjoint, with
  /// an idle gap between any two neighbours (empty for a core without RT).
  const std::vector<Busy>& busy(std::size_t core) const;

 private:
  std::vector<SimTask> rt_tasks_;
  util::SimTime horizon_ = 0;
  std::size_t deadline_misses_ = 0;
  std::size_t simulated_cores_ = 0;
  std::vector<std::vector<Busy>> cores_;
};

/// A size-1 memo of the RT slack profile, keyed by its inputs.  The band
/// engines ask it for the profile only after their own input validation, so
/// an invalid task list fails with the engine's message, not the profile's.  Not
/// thread-safe: hold one per thread (exp/metrics.cpp keeps a thread_local
/// one, so a row's static, minimum-mode, adaptive and global runs share a
/// single RT profile).
class RtSlackProfileCache {
 public:
  /// The profile of `rt_tasks` over `horizon`, simulated on a miss.
  const RtSlackProfile& get(const std::vector<SimTask>& rt_tasks, util::SimTime horizon);

 private:
  std::optional<RtSlackProfile> profile_;
};

}  // namespace hydra::sim
