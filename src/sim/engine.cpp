#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "util/contracts.h"
#include "util/rng.h"

namespace hydra::sim {

namespace {

constexpr util::SimTime kNever = std::numeric_limits<util::SimTime>::max();

/// A released-but-unfinished job on a core.
struct LiveJob {
  std::size_t task = 0;      ///< index into the task vector
  std::size_t job_index = 0; ///< index into trace.jobs[task]
  util::SimTime release = 0;
  util::SimTime remaining = 0;
  bool started = false;
};

/// Simulates one core's timeline in place, filling `trace`.
void simulate_core(const std::vector<SimTask>& tasks, const std::vector<std::size_t>& members,
                   const SimOptions& options, Trace& trace, std::size_t core,
                   util::Xoshiro256 rng) {
  // Distinct priorities per core — scheduling would be ambiguous otherwise.
  {
    std::set<int> prios;
    for (const std::size_t ti : members) {
      HYDRA_REQUIRE(prios.insert(tasks[ti].priority).second,
                    "duplicate priority on core " + std::to_string(core));
    }
  }

  std::vector<util::SimTime> next_release(tasks.size(), kNever);
  for (const std::size_t ti : members) {
    if (tasks[ti].release_offset < options.horizon) {
      next_release[ti] = tasks[ti].release_offset;
    }
  }

  std::vector<LiveJob> ready;  // all released, unfinished jobs
  const util::SimTime hard_stop = options.horizon + options.grace;
  util::SimTime now = 0;
  util::SimTime busy = 0;
  // Index (into `ready`) of a started non-preemptive job that must keep the
  // CPU; reset when it completes.
  std::optional<std::size_t> locked;

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

  const auto admit_releases = [&](util::SimTime up_to) {
    for (const std::size_t ti : members) {
      while (next_release[ti] <= up_to) {
        JobRecord rec;
        rec.release = next_release[ti];
        trace.jobs[ti].push_back(rec);
        ready.push_back(
            LiveJob{ti, trace.jobs[ti].size() - 1, rec.release, draw_exec(tasks[ti]), false});
        util::SimTime gap = tasks[ti].period;
        if (tasks[ti].release_jitter > 0) {
          gap += rng.uniform_int(1, tasks[ti].release_jitter);
        }
        const util::SimTime nxt = next_release[ti] + gap;
        next_release[ti] = (nxt < options.horizon) ? nxt : kNever;
      }
    }
  };

  // Highest priority first; backlogged jobs of one task share its priority
  // and run in release order.
  const auto pick = [&]() -> std::optional<std::size_t> {
    if (locked.has_value()) return locked;
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const int p = tasks[ready[i].task].priority;
      if (!best.has_value() || p < tasks[ready[*best].task].priority ||
          (p == tasks[ready[*best].task].priority && ready[i].release < ready[*best].release)) {
        best = i;
      }
    }
    return best;
  };

  while (now < hard_stop) {
    admit_releases(now);
    const auto chosen = pick();
    if (!chosen.has_value()) {
      const util::SimTime nxt = earliest_release();
      if (nxt == kNever) break;  // nothing left to do on this core
      now = nxt;
      continue;
    }

    LiveJob& job = ready[*chosen];
    const SimTask& task = tasks[job.task];
    JobRecord& rec = trace.jobs[job.task][job.job_index];
    if (!job.started) {
      rec.start = now;
      job.started = true;
      if (!task.preemptive) locked = *chosen;
    }

    const util::SimTime completion_at = now + job.remaining;
    // A preemptive job runs until it completes or the next release arrives;
    // a non-preemptive job always runs to completion.
    util::SimTime run_until = completion_at;
    if (task.preemptive) run_until = std::min(run_until, earliest_release());
    run_until = std::min(run_until, hard_stop);

    if (options.record_segments && run_until > now) {
      // Merge with the previous segment when the same job continues.
      if (!trace.segments.empty() && trace.segments.back().core == core &&
          trace.segments.back().task == job.task && trace.segments.back().to == now) {
        trace.segments.back().to = run_until;
      } else {
        trace.segments.push_back(ExecutionSegment{job.task, core, now, run_until});
      }
    }
    busy += run_until - now;
    job.remaining -= run_until - now;
    now = run_until;

    if (job.remaining == 0) {
      rec.completed = true;
      rec.completion = now;
      rec.deadline_missed = now > rec.release + task.deadline;
      if (locked.has_value() && *locked == *chosen) locked = std::nullopt;
      // Swap-remove; fix the locked index if the tail job was the locked one.
      const std::size_t last = ready.size() - 1;
      if (*chosen != last) {
        ready[*chosen] = ready[last];
        if (locked.has_value() && *locked == last) locked = *chosen;
      }
      ready.pop_back();
    }
  }

  // Anything still unfinished at the hard stop is an incomplete job.
  for (const LiveJob& job : ready) {
    trace.jobs[job.task][job.job_index].deadline_missed = true;
  }
  trace.core_busy[core] = busy;
}

}  // namespace

Trace simulate(const std::vector<SimTask>& tasks, const SimOptions& options) {
  HYDRA_REQUIRE(options.horizon > 0, "simulation horizon must be positive");
  std::size_t num_cores = 0;
  for (const auto& t : tasks) {
    HYDRA_REQUIRE(t.wcet > 0 && t.period > 0 && t.deadline > 0,
                  "task '" + t.name + "' needs positive WCET/period/deadline");
    HYDRA_REQUIRE(t.wcet <= t.deadline, "task '" + t.name + "' has WCET > deadline");
    num_cores = std::max(num_cores, t.core + 1);
  }

  // Auto-grace: give end-of-horizon jobs room to finish so a feasible system
  // shows zero misses (callers can still force a hard cut with grace > 0).
  SimOptions effective = options;
  if (effective.grace == 0) {
    util::SimTime max_deadline = 0;
    for (const auto& t : tasks) max_deadline = std::max(max_deadline, t.deadline);
    effective.grace = max_deadline;
  }

  Trace trace;
  trace.horizon = options.horizon;
  trace.jobs.assign(tasks.size(), {});
  trace.core_busy.assign(num_cores, 0);

  util::Xoshiro256 root_rng(options.seed);
  for (std::size_t core = 0; core < num_cores; ++core) {
    // Each core gets an independent stream so one core's draws never shift
    // another's schedule.
    util::Xoshiro256 core_rng = root_rng.fork();
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].core == core) members.push_back(i);
    }
    if (!members.empty()) {
      simulate_core(tasks, members, effective, trace, core, std::move(core_rng));
    }
  }
  return trace;
}

}  // namespace hydra::sim
