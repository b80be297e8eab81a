#include "sim/slack_profile.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/engine.h"
#include "util/contracts.h"

namespace hydra::sim {

namespace {

/// Busy ticks of the whole interval list.
util::SimTime total_busy(const std::vector<RtSlackProfile::Busy>& busy) {
  return busy.empty() ? 0 : busy.back().busy_before + (busy.back().to - busy.back().from);
}

bool same_schedule_inputs(const SimTask& a, const SimTask& b) {
  return a.wcet == b.wcet && a.period == b.period && a.deadline == b.deadline &&
         a.core == b.core && a.priority == b.priority && a.release_offset == b.release_offset &&
         a.exec_fraction_min == b.exec_fraction_min;
}

/// Exact response-time analysis of one core's RT tasks in integer ticks:
/// true when every task's worst-case response R, the least fixed point of
/// R = C + sum over higher-priority tasks h of ceil(R / T_h) * C_h (iterated
/// from C plus every higher-priority WCET), is at most min(D, T).  The tasks
/// must pass check_task and have distinct priorities (smaller value =
/// higher).  They are WCET-exact and strictly periodic, so the
/// synchronous critical instant bounds every job whatever the release
/// offsets, and R <= T keeps the task's level busy period to one job, which
/// keeps that bound valid when D > T.  A true answer therefore proves the
/// simulated schedule misses no deadline.  A false one proves nothing:
/// offsets can spare the critical instant.
bool certified_by_rta(std::vector<SimTask> on_core) {
  std::sort(on_core.begin(), on_core.end(),
            [](const SimTask& a, const SimTask& b) { return a.priority < b.priority; });
  util::SimTime hp_wcet = 0;
  for (std::size_t i = 0; i < on_core.size(); ++i) {
    const SimTask& task = on_core[i];
    const util::SimTime limit = std::min(task.deadline, task.period);
    util::SimTime r = task.wcet + hp_wcet;
    while (r <= limit) {
      util::SimTime next = task.wcet;
      for (std::size_t h = 0; h < i; ++h) {
        next += (r + on_core[h].period - 1) / on_core[h].period * on_core[h].wcet;
      }
      if (next == r) break;
      r = next;
    }
    if (r > limit) return false;
    hp_wcet += task.wcet;
  }
  return true;
}

}  // namespace

RtSlackProfile::RtSlackProfile(std::vector<SimTask> rt_tasks, util::SimTime horizon)
    : rt_tasks_(std::move(rt_tasks)), horizon_(horizon) {
  HYDRA_REQUIRE(horizon > 0, "simulation horizon must be positive");
  std::size_t num_cores = 0;
  for (const SimTask& t : rt_tasks_) {
    HYDRA_REQUIRE(t.exec_fraction_min >= 1.0,
                  "RT slack profile needs WCET-exact tasks; '" + t.name + "' is not");
    num_cores = std::max(num_cores, t.core + 1);
  }
  cores_.resize(num_cores);

  // Cores are independent and nothing draws from the RNG, so each core is
  // handled on its own: a simulated core's peak memory is its own jobs, not
  // all of them.
  std::vector<SimTask> on_core;
  for (std::size_t core = 0; core < num_cores; ++core) {
    on_core.clear();
    // Every job released before the horizon has completed by horizon +
    // demand: from the horizon on, the core works without pause until its
    // backlog is gone, and the backlog is at most its whole released demand.
    util::SimTime demand = 0;
    for (const SimTask& t : rt_tasks_) {
      if (t.core != core) continue;
      on_core.push_back(t);
      if (t.period > 0 && t.release_offset < horizon) {
        demand += (horizon - t.release_offset + t.period - 1) / t.period * t.wcet;
      }
    }
    if (on_core.empty()) continue;
    const util::SimTime grace = std::max<util::SimTime>(demand, 1);
    // sim::simulate's checks, so an invalid core fails with its messages
    // whether or not it is simulated.
    std::vector<int> priorities;
    for (const SimTask& t : on_core) {
      check_task(t);
      priorities.push_back(t.priority);
    }
    check_distinct_priorities(std::move(priorities), core);
    // A core RTA certifies misses nothing; only the others are simulated to
    // count their misses.
    if (!certified_by_rta(on_core)) {
      SimOptions options;
      options.horizon = horizon;
      options.grace = grace;
      deadline_misses_ += simulate(on_core, options).deadline_misses();
      ++simulated_cores_;
    }

    // The engine is work-conserving, so the core is busy exactly while
    // released work is pending, whatever order it runs the jobs in: walk the
    // releases (strictly periodic) in time order and extend the
    // current busy interval by each job's WCET.  test_slack_band checks the
    // result against the engine's recorded segments.
    constexpr util::SimTime kNone = std::numeric_limits<util::SimTime>::max();
    const std::size_t count = on_core.size();
    std::vector<util::SimTime> next_release(count, kNone);
    std::size_t releases = 0;  // every release opens at most one interval
    for (std::size_t i = 0; i < count; ++i) {
      const SimTask& t = on_core[i];
      if (t.release_offset >= horizon) continue;
      next_release[i] = t.release_offset;
      releases += static_cast<std::size_t>((horizon - t.release_offset + t.period - 1) / t.period);
    }
    std::vector<Busy>& busy = cores_[core];
    busy.reserve(releases);
    const util::SimTime* next = next_release.data();
    while (true) {
      // The earliest pending release, the lowest index on a tie: a
      // branch-free scan the compiler turns into conditional moves.
      std::size_t first = 0;
      util::SimTime release = next[0];
      for (std::size_t i = 1; i < count; ++i) {
        const bool earlier = next[i] < release;
        first = earlier ? i : first;
        release = earlier ? next[i] : release;
      }
      if (release == kNone) break;
      const SimTask& task = on_core[first];
      next_release[first] = release + task.period < horizon ? release + task.period : kNone;
      if (!busy.empty() && release <= busy.back().to) {
        busy.back().to += task.wcet;
      } else {
        busy.push_back(Busy{release, release + task.wcet, total_busy(busy)});
      }
    }
    HYDRA_ASSERT(busy.empty() || busy.back().to <= horizon + grace,
                 "RT slack profile did not drain its backlog");
  }
}

bool RtSlackProfile::matches(const std::vector<SimTask>& rt_tasks,
                             util::SimTime horizon) const {
  return horizon == horizon_ && rt_tasks.size() == rt_tasks_.size() &&
         std::equal(rt_tasks.begin(), rt_tasks.end(), rt_tasks_.begin(),
                    same_schedule_inputs);
}

const std::vector<RtSlackProfile::Busy>& RtSlackProfile::busy(std::size_t core) const {
  static const std::vector<Busy> kNone;
  return core < cores_.size() ? cores_[core] : kNone;
}

util::SimTime RtSlackProfile::idle_before(std::size_t core, util::SimTime t) const {
  const std::vector<Busy>& busy = this->busy(core);
  // Every interval before the first one ending after t lies wholly before t.
  const auto it = std::upper_bound(
      busy.begin(), busy.end(), t,
      [](util::SimTime value, const Busy& b) { return value < b.to; });
  if (it == busy.end()) return t - total_busy(busy);
  return t - it->busy_before - (it->from < t ? t - it->from : 0);
}

util::SimTime RtSlackProfile::time_at_idle(std::size_t core, util::SimTime x) const {
  const std::vector<Busy>& busy = this->busy(core);
  // The x-th idle tick lies in the gap before the first interval that starts
  // with at least x idle ticks behind it; inside that gap real time and idle
  // position differ by the busy ticks before the interval.
  const auto it = std::partition_point(busy.begin(), busy.end(), [x](const Busy& b) {
    return b.from - b.busy_before < x;
  });
  return x + (it == busy.end() ? total_busy(busy) : it->busy_before);
}

const RtSlackProfile& RtSlackProfileCache::get(const std::vector<SimTask>& rt_tasks,
                                               util::SimTime horizon) {
  if (!profile_.has_value() || !profile_->matches(rt_tasks, horizon)) {
    profile_.emplace(rt_tasks, horizon);  // destroys the old profile first
  }
  return *profile_;
}

}  // namespace hydra::sim
