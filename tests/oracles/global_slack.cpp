#include "oracles/global_slack.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/contracts.h"
#include "util/rng.h"

namespace hydra::oracle {

namespace {

using sim::GlobalSimTask;
using sim::JobRecord;
using sim::SimTask;

constexpr util::SimTime kNever = std::numeric_limits<util::SimTime>::max();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

struct LiveJob {
  std::size_t task = 0;
  std::size_t job_index = 0;
  util::SimTime remaining = 0;
  bool started = false;
  std::size_t last_core = kNone;
};

}  // namespace

GlobalSlackTrace simulate_global_slack(const std::vector<GlobalSimTask>& tasks,
                                       const sim::GlobalSimOptions& options) {
  util::SimTime grace = 0;
  for (const auto& gt : tasks) grace = std::max(grace, gt.task.deadline);
  const util::SimTime hard_stop = options.horizon + grace;

  GlobalSlackTrace trace;
  trace.horizon = options.horizon;
  trace.jobs.assign(tasks.size(), {});
  trace.core_busy.assign(options.num_cores, 0);

  util::Xoshiro256 rng(0x9b0da1);
  std::vector<util::SimTime> next_release(tasks.size(), kNever);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].task.release_offset < options.horizon) {
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
        next_release[i] = (nxt < options.horizon) ? nxt : kNever;
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
        // Priorities are distinct, so the idle cores take the band in
        // priority order.
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

}  // namespace hydra::oracle
