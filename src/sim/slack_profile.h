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
///
/// What decides a row is computed at construction: the input checks, the RTA
/// certificate and the miss count of uncertified cores.  The busy intervals
/// are not: a core's list is walked on the first busy(), idle_before() or
/// time_at_idle() of that core, and a Cursor reads the busy state forward
/// without the list.  The list fills behind `const`, so a profile is not
/// thread-safe; RtSlackProfileCache keeps one per thread.
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
  /// Walked on the core's first call.
  const std::vector<Busy>& busy(std::size_t core) const;

  class Cursor;

 private:
  /// The timing of one RT task, all the release walk reads.
  struct Periodic {
    util::SimTime wcet = 0;
    util::SimTime period = 0;
    util::SimTime offset = 0;
  };

  /// One core's releases (strictly periodic, each before the horizon) in
  /// time order, merged into busy intervals: a release at or before the end
  /// of the current interval extends it by its WCET, a later one opens the
  /// next.  The core is work-conserving, so these are its busy periods,
  /// whatever order it runs the jobs in.
  class ReleaseWalk {
   public:
    /// The releases of `tasks` (none when null) before `horizon`.
    ReleaseWalk(const std::vector<Periodic>* tasks, util::SimTime horizon);
    /// Forgets every release and backlog and continues from each task's
    /// first release at or after `at`, as if the core were idle before it.
    void restart(util::SimTime at);
    /// The next merged interval [from, to); false once every release is
    /// walked.
    bool next(util::SimTime& from, util::SimTime& to);
    /// The earliest release not walked yet (the maximum SimTime when none).
    util::SimTime frontier() const { return release_; }

   private:
    void find_earliest();

    const std::vector<Periodic>* tasks_;
    util::SimTime horizon_;
    std::vector<util::SimTime> next_release_;
    std::size_t first_ = 0;     // the task of the earliest pending release
    util::SimTime release_ = 0;  // that release
  };

  /// The work `tasks` release before `horizon`.
  static util::SimTime released_demand(const std::vector<Periodic>& tasks,
                                       util::SimTime horizon);

  struct Core {
    std::vector<Periodic> tasks;
    mutable bool walked = false;
    mutable std::vector<Busy> busy;
  };

  std::vector<SimTask> rt_tasks_;
  util::SimTime horizon_ = 0;
  std::size_t deadline_misses_ = 0;
  std::size_t simulated_cores_ = 0;
  std::vector<Core> cores_;
};

/// One core's RT busy state read forward in time, walking the releases only
/// as far as the reads reach.  For a consumer whose query instants never
/// decrease (the global band's clock).  A read that lands more than the
/// core's longest busy period L past the walk restarts the walk at t - L
/// with no backlog instead of walking the releases in between.  That is
/// exact: no busy period (backlog without a break) is longer than L, so the
/// true backlog empties at some instant in [t - L, t), the restarted one,
/// never larger, empties there too, and from then on both see the same
/// releases (docs/architecture.md, "Detection: one RT profile per row").
class RtSlackProfile::Cursor {
 public:
  Cursor(const RtSlackProfile& profile, std::size_t core);

  /// Whether an RT job runs on the core at tick t, and the next instant
  /// that changes (the maximum SimTime when it never does).  t must not
  /// decrease between calls.
  struct State {
    bool busy = false;
    util::SimTime until = 0;
  };
  State at(util::SimTime t);

 private:
  ReleaseWalk walk_;
  // The core's longest busy period L in ticks: the least fixed point of
  // L = sum of ceil(L / T) * C, or the maximum SimTime when the iteration
  // reaches the horizon (always when U > 1), in which case the walk never
  // restarts.
  util::SimTime longest_busy_;
  util::SimTime from_ = 0;  // the walk's latest interval
  util::SimTime to_ = 0;
};

/// RT releases the calling thread has walked, by busy() and by cursors: a
/// test reads it to see how much of a schedule was never walked.
std::size_t rt_releases_walked();

/// Cursor restarts on the calling thread (read by tests).
std::size_t rt_walk_restarts();

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
