#include "sim/global_slack.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "sim/slack_profile.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace hydra::sim {

namespace {

constexpr util::SimTime kNever = std::numeric_limits<util::SimTime>::max();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

struct LiveJob {
  std::size_t task = 0;
  std::size_t job_index = 0;
  util::SimTime remaining = 0;
  bool started = false;
  std::size_t last_core = kNone;
};

void validate_inputs(const std::vector<GlobalSimTask>& tasks, const GlobalSimOptions& options) {
  HYDRA_REQUIRE(options.horizon > 0, "simulation horizon must be positive");
  HYDRA_REQUIRE(options.num_cores >= 1, "need at least one core");
  std::vector<std::set<int>> rt_prios(options.num_cores);
  std::set<int> global_prios;
  for (const auto& gt : tasks) {
    const SimTask& t = gt.task;
    check_task(t);
    if (gt.global_band) {
      HYDRA_REQUIRE(global_prios.insert(t.priority).second,
                    "duplicate global-band priority for '" + t.name + "'");
    } else {
      HYDRA_REQUIRE(t.core < options.num_cores,
                    "task '" + t.name + "' placed on nonexistent core");
      HYDRA_REQUIRE(rt_prios[t.core].insert(t.priority).second,
                    "duplicate RT priority on core " + std::to_string(t.core));
    }
  }
}

/// The options with the auto grace resolved (largest deadline).
GlobalSimOptions with_grace(const std::vector<GlobalSimTask>& tasks,
                            const GlobalSimOptions& options) {
  GlobalSimOptions effective = options;
  if (effective.grace == 0) {
    for (const auto& gt : tasks) effective.grace = std::max(effective.grace, gt.task.deadline);
  }
  return effective;
}

}  // namespace

Trace simulate_global_slack(const std::vector<GlobalSimTask>& tasks,
                            const GlobalSimOptions& options) {
  validate_inputs(tasks, options);
  const GlobalSimOptions effective = with_grace(tasks, options);
  const util::SimTime hard_stop = effective.horizon + effective.grace;

  Trace trace;
  trace.horizon = options.horizon;
  trace.jobs.assign(tasks.size(), {});
  trace.core_busy.assign(options.num_cores, 0);

  util::Xoshiro256 rng(0x9b0da1);
  std::vector<util::SimTime> next_release(tasks.size(), kNever);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].task.release_offset < effective.horizon) {
      next_release[i] = tasks[i].task.release_offset;
    }
  }

  std::vector<LiveJob> ready;
  util::SimTime now = 0;

  const auto earliest_release = [&]() {
    util::SimTime t = kNever;
    for (const auto r : next_release) t = std::min(t, r);
    return t;
  };

  const auto admit_releases = [&](util::SimTime up_to) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const SimTask& t = tasks[i].task;
      while (next_release[i] <= up_to) {
        JobRecord rec;
        rec.release = next_release[i];
        trace.jobs[i].push_back(rec);
        util::SimTime exec = t.wcet;
        if (t.exec_fraction_min < 1.0) {
          const double fraction = rng.uniform(t.exec_fraction_min, 1.0);
          exec = std::max<util::SimTime>(
              1, static_cast<util::SimTime>(std::ceil(fraction * static_cast<double>(t.wcet))));
        }
        ready.push_back(LiveJob{i, trace.jobs[i].size() - 1, exec, false, kNone});
        const util::SimTime nxt = next_release[i] + t.period;
        next_release[i] = (nxt < effective.horizon) ? nxt : kNever;
      }
    }
  };

  while (now < hard_stop) {
    admit_releases(now);

    // --- Build the assignment for this scheduling interval. ---
    // RT first: each core runs its highest-priority ready RT job.
    std::vector<std::size_t> running(options.num_cores, kNone);  // index into `ready`
    for (std::size_t j = 0; j < ready.size(); ++j) {
      const auto& gt = tasks[ready[j].task];
      if (gt.global_band) continue;
      std::size_t& slot = running[gt.task.core];
      if (slot == kNone || gt.task.priority < tasks[ready[slot].task].task.priority) {
        slot = j;
      }
    }
    // Global band fills the idle cores in priority order.
    std::vector<std::size_t> global_ready;
    for (std::size_t j = 0; j < ready.size(); ++j) {
      if (tasks[ready[j].task].global_band) global_ready.push_back(j);
    }
    // Backlogged jobs of one task share its priority; the earlier release
    // goes first, the same rule simulate_global_band keeps.
    const auto key = [&](std::size_t j) {
      return std::make_pair(tasks[ready[j].task].task.priority,
                            trace.jobs[ready[j].task][ready[j].job_index].release);
    };
    std::sort(global_ready.begin(), global_ready.end(),
              [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
    {
      std::size_t next_global = 0;
      for (std::size_t core = 0; core < options.num_cores; ++core) {
        if (running[core] != kNone) continue;
        // Prefer to keep a job on the core it last ran on when priorities tie
        // is not needed — priorities are distinct; assign in priority order.
        if (next_global < global_ready.size()) running[core] = global_ready[next_global++];
      }
    }

    // --- Advance to the next event. ---
    bool anything_running = false;
    util::SimTime dt = kNever;
    for (const auto slot : running) {
      if (slot == kNone) continue;
      anything_running = true;
      dt = std::min(dt, ready[slot].remaining);
    }
    if (!anything_running) {
      const util::SimTime nxt = earliest_release();
      if (nxt == kNever) break;
      now = nxt;
      continue;
    }
    const util::SimTime nxt = earliest_release();
    if (nxt != kNever && nxt > now) dt = std::min(dt, nxt - now);
    dt = std::min(dt, hard_stop - now);
    HYDRA_ASSERT(dt > 0, "global-slack scheduler failed to advance");

    std::vector<std::size_t> completed;
    for (std::size_t core = 0; core < options.num_cores; ++core) {
      const std::size_t slot = running[core];
      if (slot == kNone) continue;
      LiveJob& job = ready[slot];
      JobRecord& rec = trace.jobs[job.task][job.job_index];
      if (!job.started) {
        rec.start = now;
        job.started = true;
      } else if (job.last_core != core && job.last_core != kNone) {
        ++trace.migrations;
      }
      job.last_core = core;
      job.remaining -= dt;
      trace.core_busy[core] += dt;
      if (job.remaining == 0) completed.push_back(slot);
    }
    now += dt;

    // Record completions and drop finished jobs (largest index first so the
    // swap-removes do not invalidate the remaining indices).
    std::sort(completed.rbegin(), completed.rend());
    for (const std::size_t slot : completed) {
      LiveJob& job = ready[slot];
      JobRecord& rec = trace.jobs[job.task][job.job_index];
      rec.completed = true;
      rec.completion = now;
      rec.deadline_missed = now > rec.release + tasks[job.task].task.deadline;
      ready[slot] = ready.back();
      ready.pop_back();
    }
  }

  for (const LiveJob& job : ready) {
    trace.jobs[job.task][job.job_index].deadline_missed = true;
  }
  return trace;
}

Trace simulate_global_band(const std::vector<GlobalSimTask>& tasks,
                           const GlobalSimOptions& options, RtSlackProfileCache& profiles) {
  validate_inputs(tasks, options);
  const GlobalSimOptions effective = with_grace(tasks, options);
  const util::SimTime hard_stop = effective.horizon + effective.grace;

  std::vector<SimTask> rt_tasks;
  std::vector<std::size_t> band;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const SimTask& t = tasks[i].task;
    HYDRA_REQUIRE(t.exec_fraction_min >= 1.0,
                  "band run needs WCET-exact tasks; '" + t.name + "' is not");
    if (tasks[i].global_band) {
      band.push_back(i);
    } else {
      HYDRA_REQUIRE(effective.grace >= t.deadline,
                    "band run needs a grace of at least every RT deadline");
      rt_tasks.push_back(t);
    }
  }
  const RtSlackProfile& rt = profiles.get(rt_tasks, effective.horizon);

  Trace trace;
  trace.horizon = options.horizon;
  trace.jobs.assign(tasks.size(), {});
  trace.core_busy.assign(options.num_cores, 0);
  trace.unrecorded_misses = rt.deadline_misses();

  std::vector<util::SimTime> next_release(tasks.size(), kNever);
  for (const std::size_t i : band) {
    if (tasks[i].task.release_offset < effective.horizon) {
      next_release[i] = tasks[i].task.release_offset;
    }
  }
  const auto earliest_release = [&]() {
    util::SimTime t = kNever;
    for (const std::size_t i : band) t = std::min(t, next_release[i]);
    return t;
  };
  const auto job_key = [&](const LiveJob& job) {
    return std::make_pair(tasks[job.task].task.priority,
                          trace.jobs[job.task][job.job_index].release);
  };

  // Pending monitor jobs, kept in (priority, release) order: the first k of
  // them run whenever k cores are RT-idle.
  std::vector<LiveJob> ready;
  // Per core, the first RT busy interval that ends after `now`.
  std::vector<std::size_t> cursor(options.num_cores, 0);
  util::SimTime now = 0;
  while (now < hard_stop) {
    for (const std::size_t i : band) {
      while (next_release[i] <= now) {
        JobRecord rec;
        rec.release = next_release[i];
        trace.jobs[i].push_back(rec);
        const LiveJob job{i, trace.jobs[i].size() - 1, tasks[i].task.wcet, false, kNone};
        const auto at = std::upper_bound(
            ready.begin(), ready.end(), job,
            [&](const LiveJob& a, const LiveJob& b) { return job_key(a) < job_key(b); });
        ready.insert(at, job);
        const util::SimTime nxt = next_release[i] + tasks[i].task.period;
        next_release[i] = (nxt < effective.horizon) ? nxt : kNever;
      }
    }
    const util::SimTime release_at = earliest_release();
    if (ready.empty()) {
      if (release_at == kNever) break;
      now = release_at;
      continue;
    }

    // Count the RT-idle cores and find the next instant any core changes
    // between busy and idle.
    std::size_t running = 0;
    util::SimTime until = std::min(release_at, hard_stop);
    for (std::size_t core = 0; core < options.num_cores; ++core) {
      const std::vector<RtSlackProfile::Busy>& busy = rt.busy(core);
      std::size_t& k = cursor[core];
      while (k < busy.size() && busy[k].to <= now) ++k;
      if (k < busy.size() && busy[k].from <= now) {
        until = std::min(until, busy[k].to);
        continue;
      }
      if (k < busy.size()) until = std::min(until, busy[k].from);
      running = std::min(running + 1, ready.size());
    }
    for (std::size_t j = 0; j < running; ++j) {
      until = std::min(until, now + ready[j].remaining);
    }

    for (std::size_t j = 0; j < running; ++j) {
      LiveJob& job = ready[j];
      if (!job.started) {
        trace.jobs[job.task][job.job_index].start = now;
        job.started = true;
      }
      job.remaining -= until - now;
    }
    now = until;
    for (std::size_t j = running; j-- > 0;) {
      if (ready[j].remaining != 0) continue;
      JobRecord& rec = trace.jobs[ready[j].task][ready[j].job_index];
      rec.completed = true;
      rec.completion = now;
      rec.deadline_missed = now > rec.release + tasks[ready[j].task].task.deadline;
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }

  for (const LiveJob& job : ready) {
    trace.jobs[job.task][job.job_index].deadline_missed = true;
  }
  return trace;
}

}  // namespace hydra::sim
