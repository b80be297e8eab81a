#include "sim/global_slack.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "sim/slack_profile.h"
#include "util/contracts.h"

namespace hydra::sim {

namespace {

constexpr util::SimTime kNever = std::numeric_limits<util::SimTime>::max();

struct LiveJob {
  std::size_t task = 0;
  std::size_t job_index = 0;
  util::SimTime remaining = 0;
  bool started = false;
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

}  // namespace

Trace simulate_global_band(const std::vector<GlobalSimTask>& tasks,
                           const GlobalSimOptions& options, RtSlackProfileCache& profiles) {
  validate_inputs(tasks, options);
  util::SimTime grace = 0;
  for (const auto& gt : tasks) grace = std::max(grace, gt.task.deadline);
  const util::SimTime hard_stop = options.horizon + grace;

  std::vector<SimTask> rt_tasks;
  std::vector<std::size_t> band;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const SimTask& t = tasks[i].task;
    HYDRA_REQUIRE(t.exec_fraction_min >= 1.0,
                  "band run needs WCET-exact tasks; '" + t.name + "' is not");
    if (tasks[i].global_band) {
      band.push_back(i);
    } else {
      rt_tasks.push_back(t);
    }
  }
  const RtSlackProfile& rt = profiles.get(rt_tasks, options.horizon);

  Trace trace;
  trace.horizon = options.horizon;
  trace.jobs.assign(tasks.size(), {});
  trace.core_busy.assign(options.num_cores, 0);
  trace.unrecorded_misses = rt.deadline_misses();

  std::vector<util::SimTime> next_release(tasks.size(), kNever);
  for (const std::size_t i : band) {
    const SimTask& t = tasks[i].task;
    if (t.release_offset < options.horizon) {
      next_release[i] = t.release_offset;
      trace.jobs[i].reserve(releases_before(options.horizon, t.release_offset, t.period));
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
  // A forward cursor over each core with RT tasks.  The cores without any
  // are always idle, so while the pending jobs are no more than those, every
  // pending job runs and no RT edge can change that: the RT cores are not
  // read.
  std::vector<bool> has_rt(options.num_cores, false);
  for (const SimTask& t : rt_tasks) has_rt[t.core] = true;
  std::vector<RtSlackProfile::Cursor> rt_cores;
  for (std::size_t core = 0; core < options.num_cores; ++core) {
    if (has_rt[core]) rt_cores.emplace_back(rt, core);
  }
  const std::size_t rt_free = options.num_cores - rt_cores.size();
  util::SimTime now = 0;
  while (now < hard_stop) {
    for (const std::size_t i : band) {
      while (next_release[i] <= now) {
        JobRecord rec;
        rec.release = next_release[i];
        trace.jobs[i].push_back(rec);
        const LiveJob job{i, trace.jobs[i].size() - 1, tasks[i].task.wcet, false};
        const auto at = std::upper_bound(
            ready.begin(), ready.end(), job,
            [&](const LiveJob& a, const LiveJob& b) { return job_key(a) < job_key(b); });
        ready.insert(at, job);
        const util::SimTime nxt = next_release[i] + tasks[i].task.period;
        next_release[i] = (nxt < options.horizon) ? nxt : kNever;
      }
    }
    const util::SimTime release_at = earliest_release();
    if (ready.empty()) {
      if (release_at == kNever) break;
      now = release_at;
      continue;
    }

    // Count the idle cores and find the next instant an RT core that matters
    // changes between busy and idle.
    std::size_t idle = rt_free;
    util::SimTime until = std::min(release_at, hard_stop);
    if (ready.size() > rt_free) {
      for (RtSlackProfile::Cursor& cursor : rt_cores) {
        const RtSlackProfile::Cursor::State state = cursor.at(now);
        until = std::min(until, state.until);
        if (!state.busy) ++idle;
      }
    }
    const std::size_t running = std::min(idle, ready.size());
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
