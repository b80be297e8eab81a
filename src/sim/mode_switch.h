// Runtime mode-switching simulation (the Contego adaptive story executed,
// not just allocated — arXiv:1705.00138 §runtime, arXiv:1911.11937).
//
// sim::simulate replays ONE frozen period vector on this engine's loop.
// This layer executes a *policy*: every security task carries the committed
// period ladder of its core::ModeTable entry — level 0 is the minimum mode
// (Tmax), the top level is the adapted mode (the allocator's tightened
// period), and any intermediate levels are the table's geometric rungs — and
// a per-core controller policy (sim/controller.h) moves each task along that
// ladder at job boundaries:
//
//   * The controller observes the core's idle slack over a sliding window
//     ending at the decision instant and returns the level it wants the task
//     at; which rule turns observations into levels is a registered
//     ControllerPolicy selected by ModeControllerConfig::policy (default:
//     the incumbent `hysteresis` two-point rule).
//   * Decisions happen ONLY at that task's release boundaries (a job in
//     flight never changes rate), are rate-limited per task by `min_dwell`
//     ticks between committed switches, and stop for good once the task's
//     `switch_budget` is exhausted.  Denied decisions are never silent: they
//     are counted per task in ModeStats::denied_dwell / denied_budget.
//   * Every task starts in minimum mode — the conservative always-feasible
//     baseline — and tightens only on observed slack (or, for the `boost`
//     policy, on a delivered detection event).
//   * Injected attacks (ModeSwitchOptions::attack_times) are delivered as
//     detection events: when a switchable monitor completes the first fresh
//     scan released after an attack instant, the engine calls the policy's
//     on_detection hook (a no-op for every policy except `boost`) and counts
//     it in ModeStats::detections.  Delivery touches no RNG stream, so
//     policies that ignore detections produce byte-identical traces with or
//     without attack_times.
//
// Determinism: cores are simulated independently (partitioned scheduling,
// fixed placements) with per-core forked RNG streams exactly like
// sim::simulate, and every controller decision is a pure function of the
// core-local schedule history plus the delivered detection events — so a
// fixed seed reproduces the trace, the level decisions, and the switch-event
// stream byte-for-byte, and results can ride exp::Sweep worker threads
// unchanged (see docs/architecture.md, "Runtime adaptation").
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/instance.h"
#include "core/mode_table.h"
#include "sim/controller.h"
#include "sim/task.h"

namespace hydra::sim {

/// A simulator task plus its mode ladder.  `task.period` / `task.deadline`
/// hold the MINIMUM-mode (loosest) values; `adapted_period` is the fastest
/// rate the controller may switch to; `levels` holds any INTERMEDIATE rungs,
/// fastest-last, each strictly between the two (empty for the classic
/// two-mode table).  adapted_period == 0 (or not strictly below the
/// minimum-mode period) marks the task as fixed-rate — RT tasks and monitors
/// without headroom never switch.
struct ModeTask {
  SimTask task;
  util::SimTime adapted_period = 0;
  /// Intermediate ladder rungs in ticks, strictly decreasing, each strictly
  /// inside (adapted_period, task.period).  Ignored for fixed-rate tasks.
  std::vector<util::SimTime> levels;

  /// True when the controller can actually change this task's rate: the one
  /// definition of the fixed-vs-switchable distinction, shared by the engine,
  /// the auto-window sizing, and the residency-summary population.
  bool switchable() const { return adapted_period > 0 && adapted_period < task.period; }

  /// Ladder length: level 0 = minimum mode, top = adapted.  1 for fixed-rate.
  std::size_t num_levels() const { return switchable() ? levels.size() + 2 : 1; }

  /// The period of ladder level `idx` (0 = minimum mode, num_levels()-1 =
  /// adapted).  Precondition: idx < num_levels().
  util::SimTime level_period(std::size_t idx) const {
    if (idx == 0) return task.period;
    if (idx == levels.size() + 1) return adapted_period;
    return levels[idx - 1];
  }
};

struct ModeSwitchOptions {
  util::SimTime horizon = 0;  ///< jobs are released strictly before this time
  util::SimTime grace = 0;    ///< 0 = auto (largest minimum-mode deadline)
  std::uint64_t seed = 0x5eed;
  bool record_segments = false;  ///< fill Trace::segments (Gantt/CSV export)
  ModeControllerConfig controller;
  /// Attack instants to deliver as detection events, ascending.  Every
  /// switchable monitor detects an attack at the completion of its first
  /// fresh scan released after the attack instant (sim/attack.h semantics).
  std::vector<util::SimTime> attack_times;
};

/// One committed mode switch (for hysteresis audits and event logs).
struct ModeSwitchEvent {
  std::size_t task = 0;
  util::SimTime at = 0;        ///< the release boundary the switch happened on
  bool to_adapted = false;     ///< tightened (to_level > from_level)
  std::size_t from_level = 0;  ///< ladder level before the switch
  std::size_t to_level = 0;    ///< ladder level after the switch
};

/// What the controller did, task by task.  Residency is accounted per
/// released job: a job released in mode m adds its CHOSEN PERIOD to mode m's
/// residency — level 0 to min_residency, every faster level to
/// adapted_residency.  The two fractions always sum to exactly 1, and the
/// sum of both residencies tiles the release timeline.
struct ModeStats {
  std::vector<std::size_t> switches;            ///< committed switches per task
  std::vector<util::SimTime> min_residency;     ///< ticks committed at min rate
  std::vector<util::SimTime> adapted_residency; ///< ticks committed above min
  std::vector<std::size_t> min_jobs;            ///< jobs released at level 0
  std::vector<std::size_t> adapted_jobs;        ///< jobs released above level 0
  /// Level changes the policy wanted but the per-task dwell rate limit
  /// denied.  A denied decision leaves the task's mode unchanged.
  std::vector<std::size_t> denied_dwell;
  /// Level changes the policy wanted but the exhausted switch budget denied.
  std::vector<std::size_t> denied_budget;
  /// Detection events delivered to the controller, per task.
  std::vector<std::size_t> detections;
  /// Committed switches, core-major (cores are simulated in index order),
  /// time-ascending within each core.
  std::vector<ModeSwitchEvent> events;

  /// adapted / (min + adapted) residency of `task`; 0 when it never released.
  double adapted_fraction(std::size_t task) const;
  /// Mean adapted_fraction over the tasks selected by `only`; 0 when empty.
  double mean_adapted_fraction(const std::vector<std::size_t>& only) const;
  std::size_t total_switches() const;
  std::size_t total_denied_dwell() const;
  std::size_t total_denied_budget() const;
  std::size_t total_detections() const;
};

struct ModeSwitchResult {
  Trace trace;
  ModeStats stats;
};

/// Runs the mode-switching schedule.  sim::simulate's task-validity rules
/// (the same check) plus: a non-zero adapted_period must lie in
/// [wcet, minimum-mode period); intermediate levels must be strictly
/// decreasing and strictly inside (adapted_period, minimum-mode period); the
/// controller config must pass ModeControllerConfig::validate() and its
/// resolved policy must be registered; attack_times must be ascending.
/// Throws std::invalid_argument on violations.
ModeSwitchResult simulate_mode_switching(const std::vector<ModeTask>& tasks,
                                         const ModeSwitchOptions& options);

/// `tasks` as fixed-rate ModeTasks ({task, 0, {}}): the list sim::simulate and
/// the fixed-rate detection measurement run.
std::vector<ModeTask> fixed_rate_tasks(const std::vector<SimTask>& tasks);

class RtSlackProfileCache;

/// The same run with the RT schedule taken from an RT slack profile
/// (sim/slack_profile.h): tasks [0, num_rt) are the RT tasks, which the
/// profile simulates once, and only the monitors from num_rt on are
/// scheduled, on the idle time the profile leaves.  Every monitor JobRecord,
/// the ModeStats and deadline_misses() equal simulate_mode_switching's; the
/// trace records only the monitors' jobs (the RT misses are in
/// Trace::unrecorded_misses, core_busy stays 0).  Validates like
/// simulate_mode_switching and asks `profiles` for the profile only after
/// that, then additionally requires (std::invalid_argument): fixed-rate RT
/// tasks; WCET-exact tasks; monitors ranked below every RT task of their
/// core; a grace of at least every RT deadline.
ModeSwitchResult simulate_mode_band(const std::vector<ModeTask>& tasks, std::size_t num_rt,
                                    const ModeSwitchOptions& options,
                                    RtSlackProfileCache& profiles);

/// Builds the mode-switching task list for an instance + feasible allocation:
/// the same RT/security resolution as sim::build_sim_tasks, but security
/// tasks run at their MINIMUM-mode (Tmax) period with the mode table's
/// ladder attached (adapted_period 0 when the table has no headroom for the
/// task).  Intermediate levels are rounded to ticks and dropped when the
/// rounding collapses them into a neighbour, so the emitted ladder is always
/// strictly decreasing.  Indices: RT tasks first, then security task s at
/// index NR + s.
std::vector<ModeTask> build_mode_tasks(const core::Instance& instance,
                                       const core::Allocation& allocation,
                                       const core::ModeTable& table);

}  // namespace hydra::sim
