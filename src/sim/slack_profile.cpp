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

constexpr util::SimTime kNever = std::numeric_limits<util::SimTime>::max();

/// Releases walked and cursor restarts on this thread.
thread_local std::size_t releases_walked_here = 0;
thread_local std::size_t walk_restarts_here = 0;

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
    for (const SimTask& t : rt_tasks_) {
      if (t.core == core) on_core.push_back(t);
    }
    if (on_core.empty()) continue;
    // sim::simulate's checks, so an invalid core fails with its messages
    // whether or not it is simulated.
    std::vector<int> priorities;
    for (const SimTask& t : on_core) {
      check_task(t);
      priorities.push_back(t.priority);
    }
    check_distinct_priorities(std::move(priorities), core);
    for (const SimTask& t : on_core) {
      cores_[core].tasks.push_back(Periodic{t.wcet, t.period, t.release_offset});
    }
    // A core RTA certifies misses nothing; only the others are simulated to
    // count their misses, with a grace that drains every backlog: from the
    // horizon on the core works without pause until its backlog, at most
    // its whole released demand, is gone.
    if (!certified_by_rta(on_core)) {
      SimOptions options;
      options.horizon = horizon;
      options.grace = std::max<util::SimTime>(released_demand(cores_[core].tasks, horizon), 1);
      deadline_misses_ += simulate(on_core, options).deadline_misses();
      ++simulated_cores_;
    }
  }
}

util::SimTime RtSlackProfile::released_demand(const std::vector<Periodic>& tasks,
                                              util::SimTime horizon) {
  util::SimTime demand = 0;
  for (const Periodic& t : tasks) {
    if (t.offset < horizon) demand += (horizon - t.offset + t.period - 1) / t.period * t.wcet;
  }
  return demand;
}

bool RtSlackProfile::matches(const std::vector<SimTask>& rt_tasks,
                             util::SimTime horizon) const {
  return horizon == horizon_ && rt_tasks.size() == rt_tasks_.size() &&
         std::equal(rt_tasks.begin(), rt_tasks.end(), rt_tasks_.begin(),
                    same_schedule_inputs);
}

RtSlackProfile::ReleaseWalk::ReleaseWalk(const std::vector<Periodic>* tasks,
                                         util::SimTime horizon)
    : tasks_(tasks), horizon_(horizon), next_release_(tasks != nullptr ? tasks->size() : 0) {
  restart(0);
}

void RtSlackProfile::ReleaseWalk::restart(util::SimTime at) {
  for (std::size_t i = 0; i < next_release_.size(); ++i) {
    const Periodic& t = (*tasks_)[i];
    const util::SimTime first =
        t.offset >= at ? t.offset : t.offset + (at - t.offset + t.period - 1) / t.period * t.period;
    next_release_[i] = first < horizon_ ? first : kNever;
  }
  find_earliest();
}

void RtSlackProfile::ReleaseWalk::find_earliest() {
  // The earliest pending release, the lowest index on a tie: a branch-free
  // scan the compiler turns into conditional moves.
  const util::SimTime* next = next_release_.data();
  std::size_t first = 0;
  util::SimTime release = next_release_.empty() ? kNever : next[0];
  for (std::size_t i = 1; i < next_release_.size(); ++i) {
    const bool earlier = next[i] < release;
    first = earlier ? i : first;
    release = earlier ? next[i] : release;
  }
  first_ = first;
  release_ = release;
}

bool RtSlackProfile::ReleaseWalk::next(util::SimTime& from, util::SimTime& to) {
  if (release_ == kNever) return false;
  from = release_;
  to = release_;
  std::size_t walked = 0;
  // The merge rule: a release at or before the end of the interval joins it.
  // The tie order among releases cannot move an interval, since tied jobs
  // join the same busy period.
  do {
    const Periodic& task = (*tasks_)[first_];
    to += task.wcet;
    next_release_[first_] = release_ + task.period < horizon_ ? release_ + task.period : kNever;
    ++walked;
    find_earliest();
  } while (release_ <= to);
  releases_walked_here += walked;
  return true;
}

const std::vector<RtSlackProfile::Busy>& RtSlackProfile::busy(std::size_t core) const {
  static const std::vector<Busy> kNone;
  if (core >= cores_.size()) return kNone;
  const Core& c = cores_[core];
  if (!c.walked && !c.tasks.empty()) {
    // Every release opens at most one interval.
    std::size_t releases = 0;
    for (const Periodic& t : c.tasks) {
      if (t.offset < horizon_) {
        releases += static_cast<std::size_t>((horizon_ - t.offset + t.period - 1) / t.period);
      }
    }
    c.busy.reserve(releases);
    ReleaseWalk walk(&c.tasks, horizon_);
    util::SimTime from = 0;
    util::SimTime to = 0;
    while (walk.next(from, to)) c.busy.push_back(Busy{from, to, total_busy(c.busy)});
    // The constructor's grace covers the drain: from the horizon on the
    // core works without pause through a backlog of at most its whole
    // released demand.
    HYDRA_ASSERT(c.busy.empty() ||
                     c.busy.back().to <= horizon_ + released_demand(c.tasks, horizon_),
                 "RT slack profile did not drain its backlog within the grace");
  }
  c.walked = true;
  return c.busy;
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

RtSlackProfile::Cursor::Cursor(const RtSlackProfile& profile, std::size_t core)
    : walk_(core < profile.cores_.size() ? &profile.cores_[core].tasks : nullptr,
            profile.horizon_),
      longest_busy_(kNever) {
  if (core >= profile.cores_.size()) return;
  const Core& c = profile.cores_[core];
  // Least fixed point of L = sum ceil(L / T) * C, iterated from the sum of
  // the WCETs.  It is the longest busy period: a busy period of length x
  // needs x ticks of work released inside a window of length x, and no
  // window of length x holds more than sum ceil(x / T) * C.
  util::SimTime length = 0;
  for (const Periodic& t : c.tasks) length += t.wcet;
  while (length < profile.horizon_) {
    util::SimTime demand = 0;
    for (const Periodic& t : c.tasks) demand += (length + t.period - 1) / t.period * t.wcet;
    if (demand == length) {
      longest_busy_ = length;
      break;
    }
    length = demand;
  }
}

RtSlackProfile::Cursor::State RtSlackProfile::Cursor::at(util::SimTime t) {
  if (to_ <= t) {
    // Every busy period is at most L long, so the backlog empties somewhere
    // in [t - L, t) whatever came before: walking from there with no
    // backlog gives the same busy ticks from t on.
    if (longest_busy_ != kNever && t > longest_busy_ && walk_.frontier() < t - longest_busy_) {
      walk_.restart(t - longest_busy_);
      ++walk_restarts_here;
    }
    bool found = false;
    while (walk_.next(from_, to_)) {
      if (to_ > t) {
        found = true;
        break;
      }
    }
    if (!found) from_ = to_ = kNever;
  }
  return from_ <= t ? State{true, to_} : State{false, from_};
}

std::size_t rt_releases_walked() { return releases_walked_here; }

std::size_t rt_walk_restarts() { return walk_restarts_here; }

const RtSlackProfile& RtSlackProfileCache::get(const std::vector<SimTask>& rt_tasks,
                                               util::SimTime horizon) {
  if (!profile_.has_value() || !profile_->matches(rt_tasks, horizon)) {
    profile_.emplace(rt_tasks, horizon);  // destroys the old profile first
  }
  return *profile_;
}

}  // namespace hydra::sim
