#include "sim/mode_switch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "sim/attack.h"
#include "sim/busy_window.h"
#include "sim/engine.h"
#include "sim/slack_profile.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace hydra::sim {

namespace {

constexpr util::SimTime kNever = std::numeric_limits<util::SimTime>::max();

/// A released-but-unfinished job on a core.  The relative deadline is per
/// job: a switchable monitor's is the period the controller chose at the
/// job's release boundary.
struct LiveJob {
  std::size_t task = 0;
  std::size_t job_index = 0;
  util::SimTime remaining = 0;
  util::SimTime deadline = 0;  ///< relative, mode-dependent
  util::SimTime release = 0;   ///< for detection delivery at completion
  bool started = false;
};

/// Per-task controller state on one core.
struct TaskMode {
  bool switchable = false;
  std::size_t level = 0;  ///< every task starts in minimum mode (level 0)
  std::size_t top = 0;    ///< fastest ladder index (num_levels - 1)
  util::SimTime dwell = 0;  ///< effective min_dwell for this task
  std::optional<util::SimTime> last_switch;
  std::size_t next_attack = 0;  ///< cursor into options.attack_times
};

void check_core_priorities(const std::vector<ModeTask>& tasks,
                           const std::vector<std::size_t>& members, std::size_t core) {
  std::vector<int> prios;
  prios.reserve(members.size());
  for (const std::size_t ti : members) prios.push_back(tasks[ti].task.priority);
  check_distinct_priorities(std::move(prios), core);
}

/// The controller side of one core: the policy instance, each member's mode
/// state and the ModeStats accounting.  The full loop and the band loop
/// both drive it, so they make the same decisions from the same
/// observations.
class CoreController {
 public:
  CoreController(const std::vector<ModeTask>& tasks, const std::vector<std::size_t>& members,
                 const ModeSwitchOptions& options, const std::string& policy_name,
                 util::SimTime window, ModeStats& stats)
      : tasks_(tasks),
        options_(options),
        window_(window),
        stats_(stats),
        policy_(ControllerRegistry::global().make(policy_name, options.controller,
                                                  PolicyInit{tasks.size(), window})),
        mode_(tasks.size()) {
    for (const std::size_t ti : members) {
      const ModeTask& mt = tasks[ti];
      mode_[ti].switchable = mt.switchable();
      mode_[ti].top = mt.num_levels() - 1;
      mode_[ti].dwell =
          options.controller.min_dwell > 0 ? options.controller.min_dwell : mt.task.period;
    }
  }

  /// The controller decision at task ti's release boundary `at`: the
  /// policy's desired level — a pure function of the core-local busy
  /// history, ti's own mode state, and delivered detection events — filtered
  /// through the dwell / budget machinery.  Denials are counted, never
  /// silent.  `busy_in(from, to)` returns the core's busy ticks in
  /// [from, to).
  template <class BusyIn>
  void decide(std::size_t ti, util::SimTime at, const BusyIn& busy_in) {
    TaskMode& m = mode_[ti];
    if (!m.switchable) return;
    const util::SimTime span = std::min(at, window_);
    if (span == 0) return;  // no observed history yet: stay conservative
    const util::SimTime busy_ticks = busy_in(at - span, at);
    const double idle_fraction =
        static_cast<double>(span - busy_ticks) / static_cast<double>(span);
    const std::size_t want =
        policy_->decide(ti, LevelObservation{at, idle_fraction, m.level, m.top});
    HYDRA_REQUIRE(want <= m.top,
                  "policy '" + policy_->name() + "' asked for level " +
                      std::to_string(want) + " above the analysis-feasible "
                      "fastest level " + std::to_string(m.top) + " of task '" +
                      tasks_[ti].task.name + "'");
    if (want == m.level) return;
    if (stats_.switches[ti] >= options_.controller.switch_budget) {
      ++stats_.denied_budget[ti];
      return;
    }
    if (m.last_switch.has_value() && at - *m.last_switch < m.dwell) {
      ++stats_.denied_dwell[ti];
      return;
    }
    stats_.events.push_back(ModeSwitchEvent{ti, at, want > m.level, m.level, want});
    m.level = want;
    m.last_switch = at;
    ++stats_.switches[ti];
  }

  /// Accounts a job of ti released at its committed level; returns the
  /// level's period (the gap to the next release) and the job's relative
  /// deadline.  Implicit-deadline monitors track their current rate; fixed
  /// tasks keep their configured deadline.
  std::pair<util::SimTime, util::SimTime> release(std::size_t ti) {
    const ModeTask& mt = tasks_[ti];
    const std::size_t level = mode_[ti].level;
    const util::SimTime period = mt.level_period(level);
    if (level > 0) {
      stats_.adapted_residency[ti] += period;
      ++stats_.adapted_jobs[ti];
    } else {
      stats_.min_residency[ti] += period;
      ++stats_.min_jobs[ti];
    }
    return {period, mode_[ti].switchable ? period : mt.task.deadline};
  }

  /// Detection delivery at job completion: the completed job is the first
  /// fresh scan for every not-yet-delivered attack at or before its release
  /// (sim/attack.h semantics).  No RNG is touched, so policies that ignore
  /// detections keep a byte-identical trace.
  void deliver_detections(std::size_t ti, util::SimTime release, util::SimTime completion) {
    TaskMode& m = mode_[ti];
    if (!m.switchable) return;
    while (m.next_attack < options_.attack_times.size() &&
           options_.attack_times[m.next_attack] <= release) {
      policy_->on_detection(ti, completion);
      ++stats_.detections[ti];
      ++m.next_attack;
    }
  }

 private:
  const std::vector<ModeTask>& tasks_;
  const ModeSwitchOptions& options_;
  util::SimTime window_;
  ModeStats& stats_;
  std::unique_ptr<ControllerPolicy> policy_;
  std::vector<TaskMode> mode_;
};

/// Records one job in the trace and returns its index there.
std::size_t record_release(Trace& trace, std::size_t ti, util::SimTime at) {
  JobRecord rec;
  rec.release = at;
  trace.jobs[ti].push_back(rec);
  return trace.jobs[ti].size() - 1;
}

/// Marks a finished job's record and checks its deadline.
void record_completion(JobRecord& rec, const LiveJob& job, util::SimTime at) {
  rec.completed = true;
  rec.completion = at;
  rec.deadline_missed = at > rec.release + job.deadline;
}

/// Index (into `ready`) of the highest-priority job; nullopt when empty.
/// Backlogged jobs of one task share its priority and run in release order,
/// so the pick never depends on where a job sits in `ready`.
std::optional<std::size_t> highest_priority(const std::vector<ModeTask>& tasks,
                                            const std::vector<LiveJob>& ready) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    const int p = tasks[ready[i].task].task.priority;
    if (!best.has_value() || p < tasks[ready[*best].task].task.priority ||
        (p == tasks[ready[*best].task].task.priority && ready[i].release < ready[*best].release)) {
      best = i;
    }
  }
  return best;
}

/// The core's slack window: the configured one, or 0 = auto — long enough
/// that one minimum-mode hyperperiod of the slowest switchable monitor fits
/// four times over.
util::SimTime resolve_window(const std::vector<ModeTask>& tasks,
                             const std::vector<std::size_t>& members,
                             util::SimTime configured) {
  util::SimTime window = configured;
  if (window == 0) {
    for (const std::size_t ti : members) {
      if (tasks[ti].switchable()) window = std::max(window, 4 * tasks[ti].task.period);
    }
    if (window == 0) window = 1;  // no switchable task: value is irrelevant
  }
  return window;
}

/// What a controlled run adds to the partitioned loop: the mode options, the
/// resolved policy and the stats its controllers fill.
struct Controlled {
  const ModeSwitchOptions& options;
  const std::string& policy_name;
  ModeStats& stats;
};

/// The partitioned loop of one core, behind both sim::simulate and
/// simulate_mode_switching: releases are admitted as the clock reaches them
/// (ties by member order), the highest-priority ready job runs (a task's
/// backlogged jobs in release order) until it completes or the next release
/// preempts it, and anything unfinished at horizon + grace is incomplete.
/// `controlled` null (sim::simulate): every job runs at its task's period and
/// deadline, and the core builds no controller, keeps no busy history and
/// fills no ModeStats.
void simulate_core(const std::vector<ModeTask>& tasks,
                   const std::vector<std::size_t>& members, const SimOptions& options,
                   const Controlled* controlled, Trace& trace, std::size_t core,
                   util::Xoshiro256 rng) {
  check_core_priorities(tasks, members, core);
  std::optional<CoreController> control;
  std::optional<BusyWindow> history;
  if (controlled != nullptr) {
    const util::SimTime window =
        resolve_window(tasks, members, controlled->options.controller.slack_window);
    control.emplace(tasks, members, controlled->options, controlled->policy_name, window,
                    controlled->stats);
    history.emplace(window);
  }

  std::vector<util::SimTime> next_release(tasks.size(), kNever);
  for (const std::size_t ti : members) {
    const SimTask& task = tasks[ti].task;
    if (task.release_offset < options.horizon) {
      next_release[ti] = task.release_offset;
      // The job count at the task's level-0 period: exact for a fixed-rate task.
      trace.jobs[ti].reserve(releases_before(options.horizon, task.release_offset, task.period));
    }
  }

  std::vector<LiveJob> ready;
  const util::SimTime hard_stop = options.horizon + options.grace;
  util::SimTime now = 0;
  util::SimTime busy = 0;
  const auto busy_in = [&history](util::SimTime from, util::SimTime to) {
    return history->busy_in(from, to);
  };

  const auto earliest_release = [&]() {
    util::SimTime t = kNever;
    for (const std::size_t ti : members) t = std::min(t, next_release[ti]);
    return t;
  };

  const auto draw_exec = [&](const SimTask& task) -> util::SimTime {
    if (task.exec_fraction_min >= 1.0) return task.wcet;
    const double fraction = rng.uniform(task.exec_fraction_min, 1.0);
    const double ticks = std::ceil(fraction * static_cast<double>(task.wcet));
    return std::max<util::SimTime>(1, static_cast<util::SimTime>(ticks));
  };

  // Admits the releases due at `now`, in member order.  The clock never
  // runs past a release (every job yields to it), so a due release falls
  // exactly at `now`, and the next one of the same task lies a whole period
  // later.
  const auto admit_releases = [&]() {
    for (const std::size_t ti : members) {
      if (next_release[ti] > now) continue;
      const SimTask& task = tasks[ti].task;
      util::SimTime period = task.period;
      util::SimTime deadline = task.deadline;
      if (control.has_value()) {
        control->decide(ti, now, busy_in);
        std::tie(period, deadline) = control->release(ti);
      }
      const std::size_t job_index = record_release(trace, ti, now);
      ready.push_back(LiveJob{ti, job_index, draw_exec(task), deadline, now, false});
      const util::SimTime nxt = now + period;
      next_release[ti] = (nxt < options.horizon) ? nxt : kNever;
    }
  };

  while (now < hard_stop) {
    admit_releases();
    const auto chosen = highest_priority(tasks, ready);
    if (!chosen.has_value()) {
      const util::SimTime nxt = earliest_release();
      if (nxt == kNever) break;
      now = nxt;
      continue;
    }

    LiveJob& job = ready[*chosen];
    JobRecord& rec = trace.jobs[job.task][job.job_index];
    if (!job.started) {
      rec.start = now;
      job.started = true;
    }

    const util::SimTime run_until =
        std::min({now + job.remaining, earliest_release(), hard_stop});

    if (options.record_segments && run_until > now) {
      // Merge with the previous segment when the same job continues.
      if (!trace.segments.empty() && trace.segments.back().core == core &&
          trace.segments.back().task == job.task && trace.segments.back().to == now) {
        trace.segments.back().to = run_until;
      } else {
        trace.segments.push_back(ExecutionSegment{job.task, core, now, run_until});
      }
    }
    if (history.has_value()) history->add(now, run_until);
    busy += run_until - now;
    job.remaining -= run_until - now;
    now = run_until;

    if (job.remaining == 0) {
      record_completion(rec, job, now);
      if (control.has_value()) control->deliver_detections(job.task, job.release, now);
      ready[*chosen] = ready.back();  // swap-remove
      ready.pop_back();
    }
  }

  for (const LiveJob& job : ready) {
    trace.jobs[job.task][job.job_index].deadline_missed = true;
  }
  trace.core_busy[core] = busy;
}

/// simulate_core for the monitors alone, on top of the core's RT schedule:
/// `band` holds the core's monitors, which run by fixed priority on the idle
/// axis of `rt` (idle position x = the x-th tick no RT job runs).  A job
/// released at real time r is eligible from idle position idle_before(r);
/// one that needs idle ticks up to x completes at time_at_idle(x).  Events
/// are taken in real-time order: an idle position orders them except among
/// releases inside one RT busy interval, which share an idle position and
/// go by (release time, task index), and a completion precedes a release at
/// the same position, as it does in the full loop.  The controller's
/// window busy time is the RT busy time from the profile plus the
/// monitors' own, kept in a BusyWindow on the idle axis.
void simulate_band_core(const std::vector<ModeTask>& tasks,
                        const std::vector<std::size_t>& band,
                        const ModeSwitchOptions& options, util::SimTime hard_stop,
                        const std::string& policy_name, util::SimTime window,
                        const RtSlackProfile& rt, Trace& trace, ModeStats& stats,
                        std::size_t core) {
  CoreController control(tasks, band, options, policy_name, window, stats);
  std::vector<util::SimTime> next_release(tasks.size(), kNever);
  for (const std::size_t ti : band) {
    const ModeTask& mt = tasks[ti];
    if (mt.task.release_offset < options.horizon) {
      next_release[ti] = mt.task.release_offset;
      // The job count at the task's fastest level bounds its releases.
      trace.jobs[ti].reserve(releases_before(options.horizon, mt.task.release_offset,
                                             mt.level_period(mt.num_levels() - 1)));
    }
  }
  // The monitors' execution on the idle axis.  A query spans at most
  // `window` idle ticks and ends at or after the latest add, so keeping
  // `window` ticks is enough.
  BusyWindow history(window);
  const auto busy_in = [&](util::SimTime from, util::SimTime to) {
    const util::SimTime idle_from = rt.idle_before(core, from);
    const util::SimTime idle_to = rt.idle_before(core, to);
    return (to - from) - (idle_to - idle_from) + history.busy_in(idle_from, idle_to);
  };
  const util::SimTime stop = rt.idle_before(core, hard_stop);

  std::vector<LiveJob> ready;
  util::SimTime x = 0;  // the idle position the band has been scheduled up to
  // Runs ready[i] over the idle ticks [x, until).
  const auto run = [&](std::size_t i, util::SimTime until) {
    LiveJob& job = ready[i];
    if (until == x) return;
    if (!job.started) {
      trace.jobs[job.task][job.job_index].start = rt.time_at_idle(core, x + 1) - 1;
      job.started = true;
    }
    history.add(x, until);
    job.remaining -= until - x;
    x = until;
  };

  while (true) {
    std::optional<std::size_t> next;  // earliest release, ties by task index
    for (const std::size_t ti : band) {
      if (next_release[ti] != kNever &&
          (!next.has_value() || next_release[ti] < next_release[*next])) {
        next = ti;
      }
    }
    const util::SimTime next_x =
        next.has_value() ? rt.idle_before(core, next_release[*next]) : kNever;
    const auto chosen = highest_priority(tasks, ready);
    if (chosen.has_value() && x + ready[*chosen].remaining <= next_x) {
      const util::SimTime done_x = x + ready[*chosen].remaining;
      if (done_x > stop) {
        run(*chosen, stop);  // still running at the hard stop
        break;
      }
      run(*chosen, done_x);
      const LiveJob& job = ready[*chosen];
      const util::SimTime at = rt.time_at_idle(core, x);
      record_completion(trace.jobs[job.task][job.job_index], job, at);
      control.deliver_detections(job.task, job.release, at);
      ready[*chosen] = ready.back();
      ready.pop_back();
      continue;
    }
    if (!next.has_value()) break;
    if (chosen.has_value()) {
      run(*chosen, next_x);
    } else {
      x = next_x;
    }
    const std::size_t ti = *next;
    const util::SimTime at = next_release[ti];
    control.decide(ti, at, busy_in);
    const auto [period, deadline] = control.release(ti);
    const std::size_t job_index = record_release(trace, ti, at);
    ready.push_back(LiveJob{ti, job_index, tasks[ti].task.wcet, deadline, at, false});
    const util::SimTime nxt = at + period;
    next_release[ti] = (nxt < options.horizon) ? nxt : kNever;
  }

  for (const LiveJob& job : ready) {
    trace.jobs[job.task][job.job_index].deadline_missed = true;
  }
}

/// The per-task checks of every partitioned run.
void check_tasks(const std::vector<ModeTask>& tasks) {
  for (const auto& mt : tasks) {
    const SimTask& t = mt.task;
    check_task(t);
    if (mt.adapted_period > 0) {
      HYDRA_REQUIRE(mt.adapted_period >= t.wcet,
                    "task '" + t.name + "' has adapted period below its WCET");
      HYDRA_REQUIRE(mt.adapted_period <= t.period,
                    "task '" + t.name + "' has adapted period above minimum mode");
    }
    if (mt.switchable()) {
      util::SimTime prev = t.period;
      for (const util::SimTime level : mt.levels) {
        HYDRA_REQUIRE(level < prev && level > mt.adapted_period,
                      "task '" + t.name + "' has a mode level outside the "
                      "strictly decreasing (adapted, minimum) ladder");
        prev = level;
      }
    }
  }
}

/// The input checks both mode-switching entry points share; returns the
/// resolved policy.
std::string validate_inputs(const std::vector<ModeTask>& tasks,
                            const ModeSwitchOptions& options) {
  HYDRA_REQUIRE(options.horizon > 0, "simulation horizon must be positive");
  options.controller.validate();
  std::string policy_name = resolve_policy(options.controller.policy);
  ControllerRegistry::global().require(policy_name);
  for (std::size_t i = 1; i < options.attack_times.size(); ++i) {
    HYDRA_REQUIRE(options.attack_times[i - 1] <= options.attack_times[i],
                  "attack_times must be ascending");
  }
  check_tasks(tasks);
  return policy_name;
}

std::size_t core_count(const std::vector<ModeTask>& tasks) {
  std::size_t num_cores = 0;
  for (const auto& mt : tasks) num_cores = std::max(num_cores, mt.task.core + 1);
  return num_cores;
}

std::vector<std::size_t> members_of(const std::vector<ModeTask>& tasks, std::size_t core) {
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].task.core == core) members.push_back(i);
  }
  return members;
}

/// The completion grace of every mode-switching run (and of sim::simulate
/// when SimOptions::grace is 0): the largest minimum-mode deadline.
util::SimTime largest_deadline(const std::vector<ModeTask>& tasks) {
  util::SimTime grace = 0;
  for (const auto& mt : tasks) grace = std::max(grace, mt.task.deadline);
  return grace;
}

/// A trace with every per-task and per-core vector sized and zeroed.
Trace empty_trace(std::size_t num_tasks, std::size_t num_cores, util::SimTime horizon) {
  Trace trace;
  trace.horizon = horizon;
  trace.jobs.assign(num_tasks, {});
  trace.core_busy.assign(num_cores, 0);
  return trace;
}

/// A result with every per-task vector sized and zeroed.
ModeSwitchResult empty_result(std::size_t num_tasks, std::size_t num_cores,
                              util::SimTime horizon) {
  ModeSwitchResult result;
  result.trace = empty_trace(num_tasks, num_cores, horizon);
  result.stats.switches.assign(num_tasks, 0);
  result.stats.min_residency.assign(num_tasks, 0);
  result.stats.adapted_residency.assign(num_tasks, 0);
  result.stats.min_jobs.assign(num_tasks, 0);
  result.stats.adapted_jobs.assign(num_tasks, 0);
  result.stats.denied_dwell.assign(num_tasks, 0);
  result.stats.denied_budget.assign(num_tasks, 0);
  result.stats.detections.assign(num_tasks, 0);
  return result;
}

/// Runs simulate_core on every core, in core order, each on its own RNG
/// stream forked from `options.seed` in core order, so one core's draws never
/// shift another's schedule.  `controlled` null: no core has a controller.
void simulate_partitioned(const std::vector<ModeTask>& tasks, const SimOptions& options,
                          const Controlled* controlled, Trace& trace) {
  util::Xoshiro256 root_rng(options.seed);
  for (std::size_t core = 0; core < trace.core_busy.size(); ++core) {
    util::Xoshiro256 core_rng = root_rng.fork();
    const std::vector<std::size_t> members = members_of(tasks, core);
    if (!members.empty()) {
      simulate_core(tasks, members, options, controlled, trace, core, std::move(core_rng));
    }
  }
}

std::size_t sum(const std::vector<std::size_t>& v) {
  std::size_t n = 0;
  for (const auto x : v) n += x;
  return n;
}

}  // namespace

double ModeStats::adapted_fraction(std::size_t task) const {
  HYDRA_REQUIRE(task < adapted_residency.size(), "task index out of range");
  const util::SimTime total = min_residency[task] + adapted_residency[task];
  if (total == 0) return 0.0;
  return static_cast<double>(adapted_residency[task]) / static_cast<double>(total);
}

double ModeStats::mean_adapted_fraction(const std::vector<std::size_t>& only) const {
  if (only.empty()) return 0.0;
  double sum = 0.0;
  for (const std::size_t task : only) sum += adapted_fraction(task);
  return sum / static_cast<double>(only.size());
}

std::size_t ModeStats::total_switches() const { return sum(switches); }
std::size_t ModeStats::total_denied_dwell() const { return sum(denied_dwell); }
std::size_t ModeStats::total_denied_budget() const { return sum(denied_budget); }
std::size_t ModeStats::total_detections() const { return sum(detections); }

std::vector<ModeTask> fixed_rate_tasks(const std::vector<SimTask>& tasks) {
  std::vector<ModeTask> fixed;
  fixed.reserve(tasks.size());
  for (const SimTask& task : tasks) fixed.push_back(ModeTask{task, 0, {}});
  return fixed;
}

Trace simulate(const std::vector<SimTask>& tasks, const SimOptions& options) {
  HYDRA_REQUIRE(options.horizon > 0, "simulation horizon must be positive");
  const std::vector<ModeTask> fixed = fixed_rate_tasks(tasks);
  check_tasks(fixed);
  SimOptions effective = options;
  if (effective.grace == 0) effective.grace = largest_deadline(fixed);
  Trace trace = empty_trace(fixed.size(), core_count(fixed), options.horizon);
  simulate_partitioned(fixed, effective, nullptr, trace);
  return trace;
}

ModeSwitchResult simulate_mode_switching(const std::vector<ModeTask>& tasks,
                                         const ModeSwitchOptions& options) {
  const std::string policy_name = validate_inputs(tasks, options);
  ModeSwitchResult result = empty_result(tasks.size(), core_count(tasks), options.horizon);
  const SimOptions run{options.horizon, largest_deadline(tasks), options.seed};
  const Controlled controlled{options, policy_name, result.stats};
  simulate_partitioned(tasks, run, &controlled, result.trace);
  return result;
}

ModeSwitchResult simulate_mode_band(const std::vector<ModeTask>& tasks, std::size_t num_rt,
                                    const ModeSwitchOptions& options,
                                    RtSlackProfileCache& profiles) {
  const std::string policy_name = validate_inputs(tasks, options);
  const std::size_t num_cores = core_count(tasks);
  for (std::size_t core = 0; core < num_cores; ++core) {
    check_core_priorities(tasks, members_of(tasks, core), core);
  }
  HYDRA_REQUIRE(num_rt <= tasks.size(), "more RT tasks than tasks");
  std::vector<SimTask> rt_tasks;
  rt_tasks.reserve(num_rt);
  for (std::size_t i = 0; i < num_rt; ++i) {
    const SimTask& t = tasks[i].task;
    HYDRA_REQUIRE(!tasks[i].switchable(), "RT task '" + t.name + "' cannot switch modes");
    rt_tasks.push_back(t);
  }
  for (std::size_t i = num_rt; i < tasks.size(); ++i) {
    const SimTask& t = tasks[i].task;
    HYDRA_REQUIRE(t.exec_fraction_min >= 1.0,
                  "band task '" + t.name + "' must be WCET-exact");
    for (const SimTask& r : rt_tasks) {
      HYDRA_REQUIRE(r.core != t.core || r.priority < t.priority,
                    "band task '" + t.name + "' must rank below every RT task of its core");
    }
  }
  const RtSlackProfile& rt = profiles.get(rt_tasks, options.horizon);
  const util::SimTime hard_stop = options.horizon + largest_deadline(tasks);

  ModeSwitchResult result = empty_result(tasks.size(), num_cores, options.horizon);
  result.trace.unrecorded_misses = rt.deadline_misses();
  // RT tasks are fixed-rate: every release before the
  // horizon is a minimum-mode job.
  for (std::size_t i = 0; i < num_rt; ++i) {
    const SimTask& t = tasks[i].task;
    const std::size_t jobs = releases_before(options.horizon, t.release_offset, t.period);
    result.stats.min_jobs[i] = jobs;
    result.stats.min_residency[i] = jobs * t.period;
  }
  for (std::size_t core = 0; core < num_cores; ++core) {
    const std::vector<std::size_t> members = members_of(tasks, core);
    std::vector<std::size_t> band;
    for (const std::size_t ti : members) {
      if (ti >= num_rt) band.push_back(ti);
    }
    if (band.empty()) continue;
    const util::SimTime window =
        resolve_window(tasks, members, options.controller.slack_window);
    simulate_band_core(tasks, band, options, hard_stop, policy_name, window, rt,
                       result.trace, result.stats, core);
  }
  return result;
}

std::vector<ModeTask> build_mode_tasks(const core::Instance& instance,
                                       const core::Allocation& allocation,
                                       const core::ModeTable& table) {
  HYDRA_REQUIRE(table.modes.size() == instance.security_tasks.size(),
                "mode table does not cover the security task set");
  const std::vector<SimTask> base = build_sim_tasks(instance, allocation);
  std::vector<ModeTask> tasks;
  tasks.reserve(base.size());
  const std::size_t nr = instance.rt_tasks.size();
  for (std::size_t i = 0; i < base.size(); ++i) {
    ModeTask mt;
    mt.task = base[i];
    if (i >= nr) {
      const std::size_t s = i - nr;
      const core::SecurityMode& m = table.modes[s];
      // Minimum mode: round Tmax up to a whole tick (a longer period only
      // reduces demand — same convention as build_sim_tasks).
      mt.task.period =
          std::max<util::SimTime>(util::to_ticks_ceil(m.min_period), mt.task.wcet);
      mt.task.deadline = mt.task.period;
      if (table.has_headroom(s)) {
        mt.adapted_period =
            std::max<util::SimTime>(util::to_ticks_ceil(m.adapted_period), mt.task.wcet);
        // Tick rounding can collapse the headroom; a collapsed pair is fixed.
        if (mt.adapted_period >= mt.task.period) mt.adapted_period = 0;
      }
      if (mt.adapted_period > 0 && m.levels.size() > 2) {
        // Intermediate rungs, rounded to ticks; rounding can collapse a rung
        // into a neighbour — drop it so the ladder stays strictly decreasing.
        util::SimTime prev = mt.task.period;
        for (std::size_t k = 1; k + 1 < m.levels.size(); ++k) {
          const util::SimTime tick = std::max<util::SimTime>(
              util::to_ticks_ceil(m.levels[k]), mt.task.wcet);
          if (tick < prev && tick > mt.adapted_period) {
            mt.levels.push_back(tick);
            prev = tick;
          }
        }
      }
    }
    tasks.push_back(std::move(mt));
  }
  return tasks;
}

}  // namespace hydra::sim
