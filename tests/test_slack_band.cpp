// Differential oracle for the band engines (sim/slack_profile.h).
//
// The detection measurements simulate the RT tasks once (sim::RtSlackProfile)
// and schedule only the monitors on the idle time that leaves.  The full
// engines — the per-core loop behind sim::simulate and
// sim::simulate_mode_switching, and the test-only
// hydra::oracle::simulate_global_slack — serve here as the oracle: on every
// input below the band path must reproduce each monitor's
// JobRecords (release, start, completion, completed, deadline_missed), the
// deadline-miss count, every ModeStats vector and the switch-event stream,
// and the measure_* entry points must return DetectionResults whose
// detection_ms bytes equal those read off the full engines' traces.
//
// Inputs: seeded contego batches at M = 2 and 4 between 0.25 and 0.7 M,
// every committed workload in tests/corpus/ and tests/corpus_controller/,
// all four controller policies at 2 and 3 levels, both attack scopes, and
// two inputs where RT jobs miss deadlines — the committed
// tests/corpus_sim/ instance and a hand-built RT overload whose backlog runs
// past horizon + grace.  The RtSlackProfile unit tests pin the idle-axis
// mapping at its edges, the busy intervals of a seeded batch of tied
// releases against the engine's segments, and the RTA certificate that
// spares a core its RT simulation: on every input above the profile's miss
// count equals a direct sim::simulate of the RT tasks, the seeded batches
// need no simulation, and hand-built cores pin R == D, release offsets,
// R > T and invalid input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/contego.h"
#include "core/mode_table.h"
#include "gen/synthetic.h"
#include "gp_testlib.h"
#include "io/taskset_io.h"
#include "oracles/global_slack.h"
#include "sim/attack.h"
#include "sim/engine.h"
#include "sim/global_slack.h"
#include "sim/mode_switch.h"
#include "sim/slack_profile.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace oracle = hydra::oracle;
namespace sim = hydra::sim;
namespace testlib = hydra::testlib;
using hydra::util::SimTime;

namespace {

constexpr SimTime kMs = hydra::util::kTicksPerMilli;

const std::vector<std::string> kPolicies = {"hysteresis", "hysteresis/nlevel", "boost",
                                            "never-switch"};
const std::vector<sim::AttackScope> kScopes = {sim::AttackScope::kAllTasks,
                                               sim::AttackScope::kSingleTask};

sim::SimTask make_task(const std::string& name, SimTime wcet, SimTime period,
                       SimTime deadline, std::size_t core, int priority,
                       SimTime offset = 0) {
  sim::SimTask t;
  t.name = name;
  t.wcet = wcet;
  t.period = period;
  t.deadline = deadline;
  t.core = core;
  t.priority = priority;
  t.release_offset = offset;
  return t;
}

std::vector<sim::ModeTask> fixed_rate(const std::vector<sim::SimTask>& tasks) {
  std::vector<sim::ModeTask> out;
  for (const auto& t : tasks) out.push_back(sim::ModeTask{t, 0, {}});
  return out;
}

sim::ModeSwitchOptions fixed_rate_options(SimTime horizon) {
  sim::ModeSwitchOptions options;
  options.horizon = horizon;
  options.controller.policy = "never-switch";
  return options;
}

/// The monitors' JobRecords (tasks from `first` on) and the miss counts.
void expect_same_jobs(const sim::Trace& full, const sim::Trace& band, std::size_t first,
                      const std::string& what) {
  ASSERT_EQ(full.jobs.size(), band.jobs.size()) << what;
  for (std::size_t i = first; i < full.jobs.size(); ++i) {
    ASSERT_EQ(full.jobs[i].size(), band.jobs[i].size()) << what << " task " << i;
    for (std::size_t j = 0; j < full.jobs[i].size(); ++j) {
      const sim::JobRecord& a = full.jobs[i][j];
      const sim::JobRecord& b = band.jobs[i][j];
      const std::string at = what + " task " + std::to_string(i) + " job " + std::to_string(j);
      ASSERT_EQ(a.release, b.release) << at;
      ASSERT_EQ(a.start, b.start) << at;
      ASSERT_EQ(a.completed, b.completed) << at;
      ASSERT_EQ(a.completion, b.completion) << at;
      ASSERT_EQ(a.deadline_missed, b.deadline_missed) << at;
    }
  }
  EXPECT_EQ(full.deadline_misses(), band.deadline_misses()) << what;
}

void expect_same_stats(const sim::ModeStats& a, const sim::ModeStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.switches, b.switches) << what;
  EXPECT_EQ(a.min_residency, b.min_residency) << what;
  EXPECT_EQ(a.adapted_residency, b.adapted_residency) << what;
  EXPECT_EQ(a.min_jobs, b.min_jobs) << what;
  EXPECT_EQ(a.adapted_jobs, b.adapted_jobs) << what;
  EXPECT_EQ(a.denied_dwell, b.denied_dwell) << what;
  EXPECT_EQ(a.denied_budget, b.denied_budget) << what;
  EXPECT_EQ(a.detections, b.detections) << what;
  ASSERT_EQ(a.events.size(), b.events.size()) << what;
  for (std::size_t k = 0; k < a.events.size(); ++k) {
    EXPECT_EQ(a.events[k].task, b.events[k].task) << what << " event " << k;
    EXPECT_EQ(a.events[k].at, b.events[k].at) << what << " event " << k;
    EXPECT_EQ(a.events[k].to_adapted, b.events[k].to_adapted) << what << " event " << k;
    EXPECT_EQ(a.events[k].from_level, b.events[k].from_level) << what << " event " << k;
    EXPECT_EQ(a.events[k].to_level, b.events[k].to_level) << what << " event " << k;
  }
}

void expect_same_detection(const sim::DetectionResult& a, const sim::DetectionResult& b,
                           const std::string& what) {
  EXPECT_EQ(a.undetected, b.undetected) << what;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << what;
  ASSERT_EQ(a.detection_ms.size(), b.detection_ms.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.detection_ms.data(), b.detection_ms.data(),
                           a.detection_ms.size() * sizeof(double)))
      << what;
}

/// The profile's RT miss count against a direct sim::simulate of the same RT
/// tasks over the same horizon, at the grace every band consumer uses (the
/// largest deadline); returns the cores the profile had to simulate.
std::size_t check_profile(const sim::RtSlackProfile& profile,
                          const std::vector<sim::SimTask>& rt, SimTime horizon,
                          const std::string& what) {
  sim::SimOptions options;
  options.horizon = horizon;
  EXPECT_EQ(profile.deadline_misses(), sim::simulate(rt, options).deadline_misses()) << what;
  return profile.simulated_cores();
}

struct AllocationCheck {
  std::size_t static_misses = 0;    ///< the full engines' static-run misses
  std::size_t simulated_cores = 0;  ///< cores the RT profile had to simulate
};

/// Every comparison for one feasible allocation.  `cache` is shared by all
/// runs of the allocation, as exp/metrics.cpp shares it across a row.
AllocationCheck check_allocation(const core::Instance& instance,
                                 const core::Allocation& allocation, SimTime horizon,
                                 const std::string& what, sim::RtSlackProfileCache& cache) {
  const std::size_t nr = instance.rt_tasks.size();
  const std::size_t ns = instance.security_tasks.size();
  AllocationCheck result;
  {
    const auto tasks = sim::build_sim_tasks(instance, allocation);
    const std::vector<sim::SimTask> rt(tasks.begin(), tasks.begin() + nr);
    result.simulated_cores = check_profile(cache.get(rt, horizon), rt, horizon, what + " RT");
  }

  const std::vector<std::pair<std::string, core::Allocation>> fixed = {
      {"static", allocation}, {"min-mode", core::min_mode_allocation(instance, allocation)}};
  for (const auto& [label, alloc] : fixed) {
    const auto tasks = sim::build_sim_tasks(instance, alloc);
    sim::SimOptions options;
    options.horizon = horizon;
    const sim::Trace full = sim::simulate(tasks, options);
    const auto band =
        sim::simulate_mode_band(fixed_rate(tasks), nr, fixed_rate_options(horizon), cache);
    expect_same_jobs(full, band.trace, nr, what + " " + label);
    if (label == "static") result.static_misses = full.deadline_misses();
    for (const auto scope : kScopes) {
      sim::DetectionConfig config;
      config.horizon = horizon;
      config.trials = 60;
      config.scope = scope;
      expect_same_detection(sim::sample_attacks(full, tasks, nr, ns, config),
                            sim::measure_detection_times(instance, alloc, config, &cache),
                            what + " " + label + " detection");
    }
  }

  {
    const auto tasks = sim::build_sim_tasks(instance, allocation);
    std::vector<sim::GlobalSimTask> global;
    for (std::size_t i = 0; i < tasks.size(); ++i) global.push_back({tasks[i], i >= nr});
    sim::GlobalSimOptions options;
    options.horizon = horizon;
    options.num_cores = instance.num_cores;
    const sim::Trace full = oracle::simulate_global_slack(global, options);
    expect_same_jobs(full, sim::simulate_global_band(global, options, cache), nr,
                     what + " global");
    for (const auto scope : kScopes) {
      sim::DetectionConfig config;
      config.horizon = horizon;
      config.trials = 60;
      config.scope = scope;
      expect_same_detection(
          sim::sample_attacks(full, tasks, nr, ns, config),
          sim::measure_detection_times_global(instance, allocation, config, &cache),
          what + " global detection");
    }
  }

  for (const std::size_t levels : {2u, 3u}) {
    const auto table = core::build_mode_table(instance, allocation, levels);
    const auto mode_tasks = sim::build_mode_tasks(instance, allocation, table);
    std::vector<sim::SimTask> window_tasks;
    for (const auto& mt : mode_tasks) window_tasks.push_back(mt.task);
    // Each policy meets each attack scope once across the two ladder lengths.
    const sim::AttackScope scope = kScopes[levels - 2];
    for (const auto& policy : kPolicies) {
      {
        const std::string at = what + " " + policy + " levels=" + std::to_string(levels) +
                               (scope == sim::AttackScope::kAllTasks ? " all" : " single");
        sim::DetectionConfig config;
        config.horizon = horizon;
        config.trials = 60;
        config.seed = 7;
        config.scope = scope;
        sim::ModeControllerConfig controller;
        controller.policy = policy;
        controller.num_levels = levels;
        const sim::AttackPlan plan = sim::plan_attacks(window_tasks, nr, ns, config);
        sim::ModeSwitchOptions options;
        options.horizon = horizon;
        options.seed = config.seed;
        options.controller = controller;
        options.attack_times = plan.sorted_times();
        const auto full = sim::simulate_mode_switching(mode_tasks, options);
        const auto band = sim::simulate_mode_band(mode_tasks, nr, options, cache);
        expect_same_jobs(full.trace, band.trace, nr, at);
        expect_same_stats(full.stats, band.stats, at);
        const auto measured = sim::measure_detection_times_adaptive(instance, allocation,
                                                                    config, controller, &cache);
        expect_same_detection(sim::detect_planned_attacks(full.trace, nr, ns, config, plan),
                              measured.detection, at + " detection");
        expect_same_stats(full.stats, measured.modes, at + " measured");
      }
    }
  }
  return result;
}

/// A horizon long enough for plan_attacks: three minimum-mode periods of the
/// slowest monitor, plus room to detect.
SimTime horizon_for(const core::Instance& instance) {
  double slowest = 0.0;
  for (const auto& s : instance.security_tasks) slowest = std::max(slowest, s.period_max);
  return hydra::util::to_ticks_ceil(3.0 * slowest) + 2'000 * kMs;
}

/// The full list's answer to a cursor read at t: whether tick t is busy, and
/// the next instant that changes.  Only the first interval ending after t
/// decides it.
sim::RtSlackProfile::Cursor::State state_at(const std::vector<sim::RtSlackProfile::Busy>& busy,
                                            SimTime t) {
  const auto it = std::upper_bound(
      busy.begin(), busy.end(), t,
      [](SimTime value, const sim::RtSlackProfile::Busy& b) { return value < b.to; });
  if (it == busy.end()) return {false, std::numeric_limits<SimTime>::max()};
  return it->from <= t ? sim::RtSlackProfile::Cursor::State{true, it->to}
                       : sim::RtSlackProfile::Cursor::State{false, it->from};
}

/// The longest busy period of one core's RT tasks, as the cursor restarts
/// by it: the least fixed point of L = sum of ceil(L / T) * C, iterated from
/// the sum of the WCETs, or the maximum SimTime once the iteration reaches
/// the horizon.
SimTime longest_busy_of(const std::vector<sim::SimTask>& on_core, SimTime horizon) {
  SimTime length = 0;
  for (const auto& t : on_core) length += t.wcet;
  while (length < horizon) {
    SimTime demand = 0;
    for (const auto& t : on_core) demand += (length + t.period - 1) / t.period * t.wcet;
    if (demand == length) return length;
    length = demand;
  }
  return std::numeric_limits<SimTime>::max();
}

/// RT releases of `rt` before `horizon`.
std::size_t releases_of(const std::vector<sim::SimTask>& rt, SimTime horizon) {
  std::size_t releases = 0;
  for (const auto& t : rt) {
    if (t.release_offset < horizon) {
      releases += static_cast<std::size_t>((horizon - t.release_offset + t.period - 1) / t.period);
    }
  }
  return releases;
}

/// `tasks` (RT first, `nr` of them) with the RT tasks dealt round-robin over
/// `cores` cores and the monitors after them, so every core runs RT work and
/// every monitor shares a core with some.
std::vector<sim::SimTask> spread_over_every_core(std::vector<sim::SimTask> tasks, std::size_t nr,
                                                 std::size_t cores) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].core = (i < nr ? i : i - nr) % cores;
  }
  return tasks;
}

}  // namespace

// ---------------------------------------------------------------------------
// RtSlackProfile: the idle axis
// ---------------------------------------------------------------------------

TEST(RtSlackProfile, IdleAxisRoundTripsAndMatchesTheSegments) {
  const std::vector<sim::SimTask> rt = {
      make_task("a", 3, 10, 10, 0, 0), make_task("b", 7, 25, 25, 0, 1),
      make_task("c", 11, 40, 40, 1, 1, 5), make_task("d", 2, 9, 9, 1, 0)};
  const SimTime horizon = 400;
  const sim::RtSlackProfile profile(rt, horizon);
  EXPECT_EQ(profile.deadline_misses(), 0u);

  // Busy ticks straight from the engine's segments.
  sim::SimOptions options;
  options.horizon = horizon;
  options.record_segments = true;
  const sim::Trace trace = sim::simulate(rt, options);
  for (std::size_t core = 0; core < 2; ++core) {
    std::vector<bool> busy(2 * horizon, false);
    for (const auto& seg : trace.segments) {
      if (seg.core != core) continue;
      for (SimTime t = seg.from; t < seg.to; ++t) busy[t] = true;
    }
    SimTime idle = 0;
    for (SimTime t = 0; t < busy.size(); ++t) {
      ASSERT_EQ(profile.idle_before(core, t), idle) << "core " << core << " t " << t;
      const SimTime back = profile.time_at_idle(core, idle);
      ASSERT_LE(back, t);
      ASSERT_EQ(profile.idle_before(core, back), idle);
      if (!busy[t]) {
        ++idle;
        // time_at_idle is the earliest instant the idle count is reached:
        // the end of this idle tick.
        ASSERT_EQ(profile.time_at_idle(core, idle), t + 1) << "core " << core;
      }
    }
    const auto& intervals = profile.busy(core);
    ASSERT_FALSE(intervals.empty());
    for (std::size_t k = 1; k < intervals.size(); ++k) {
      EXPECT_LT(intervals[k - 1].to, intervals[k].from) << "merged intervals leave a gap";
    }
  }
}

TEST(RtSlackProfile, ReleaseInsideABusyIntervalWaitsForTheGap) {
  // RT busy [0, 30); a monitor released at 10 is eligible at idle position 0
  // and runs [30, 35).
  const std::vector<sim::SimTask> tasks = {make_task("rt", 30, 100, 100, 0, 0),
                                           make_task("mon", 5, 100, 100, 0, 1, 10)};
  const sim::RtSlackProfile profile({tasks[0]}, 100);
  EXPECT_EQ(profile.idle_before(0, 10), 0u);
  EXPECT_EQ(profile.time_at_idle(0, 5), 35u);

  sim::SimOptions options;
  options.horizon = 100;
  const sim::Trace full = sim::simulate(tasks, options);
  sim::RtSlackProfileCache cache;
  const auto band = sim::simulate_mode_band(fixed_rate(tasks), 1, fixed_rate_options(100), cache);
  expect_same_jobs(full, band.trace, 1, "release in busy");
  ASSERT_EQ(band.trace.jobs[1].size(), 1u);
  EXPECT_EQ(band.trace.jobs[1][0].start, 30u);
  EXPECT_EQ(band.trace.jobs[1][0].completion, 35u);
}

TEST(RtSlackProfile, CompletionExactlyAtTheEndOfAGap) {
  // RT busy [0, 30) and [100, 130); a 70-tick monitor fills the gap
  // [30, 100) exactly and completes at 100, not after the next interval.
  const std::vector<sim::SimTask> tasks = {make_task("rt", 30, 100, 100, 0, 0),
                                           make_task("mon", 70, 300, 300, 0, 1)};
  const sim::RtSlackProfile profile({tasks[0]}, 200);
  EXPECT_EQ(profile.time_at_idle(0, 70), 100u);
  EXPECT_EQ(profile.idle_before(0, 100), 70u);
  EXPECT_EQ(profile.idle_before(0, 130), 70u);

  sim::SimOptions options;
  options.horizon = 200;
  const sim::Trace full = sim::simulate(tasks, options);
  sim::RtSlackProfileCache cache;
  const auto band = sim::simulate_mode_band(fixed_rate(tasks), 1, fixed_rate_options(200), cache);
  expect_same_jobs(full, band.trace, 1, "gap end");
  EXPECT_EQ(band.trace.jobs[1][0].completion, 100u);
}

TEST(RtSlackProfile, JobFinishingExactlyAtTheHardStop) {
  // Horizon 100 and a largest deadline of 300: hard stop 400.  RT busy
  // [0, 50) and [99, 249) leave 49 idle ticks before 249; a 200-tick monitor
  // needs 151 more and completes exactly at 400, past its deadline of 300
  // (a job that completes at the hard stop is always late).  One tick more
  // and it is cut off.
  for (const SimTime wcet : {200u, 201u}) {
    const std::vector<sim::SimTask> tasks = {make_task("a", 50, 100, 100, 0, 0),
                                             make_task("b", 150, 1000, 150, 0, 1, 99),
                                             make_task("mon", wcet, 300, 300, 0, 2)};
    sim::SimOptions options;
    options.horizon = 100;
    const sim::Trace full = sim::simulate(tasks, options);
    sim::RtSlackProfileCache cache;
    const auto band =
        sim::simulate_mode_band(fixed_rate(tasks), 2, fixed_rate_options(100), cache);
    expect_same_jobs(full, band.trace, 2, "hard stop, wcet " + std::to_string(wcet));
    const sim::JobRecord& job = band.trace.jobs[2][0];
    EXPECT_EQ(job.start, 50u);
    EXPECT_EQ(job.completed, wcet == 200u);
    if (wcet == 200u) {
      EXPECT_EQ(job.completion, 400u);
    }
    EXPECT_TRUE(job.deadline_missed);
  }
}

TEST(RtSlackProfile, EmptyCoreIsAlwaysIdle) {
  const std::vector<sim::SimTask> tasks = {make_task("rt", 40, 100, 100, 0, 0),
                                           make_task("mon0", 20, 100, 100, 0, 1),
                                           make_task("mon1", 30, 70, 70, 1, 2)};
  const sim::RtSlackProfile profile({tasks[0]}, 500);
  for (const SimTime t : {0u, 1u, 77u, 500u, 10'000u}) {
    EXPECT_EQ(profile.idle_before(1, t), t);
    EXPECT_EQ(profile.time_at_idle(1, t), t);
    EXPECT_EQ(profile.idle_before(7, t), t);
  }
  EXPECT_TRUE(profile.busy(1).empty());

  sim::SimOptions options;
  options.horizon = 500;
  const sim::Trace full = sim::simulate(tasks, options);
  sim::RtSlackProfileCache cache;
  const auto band = sim::simulate_mode_band(fixed_rate(tasks), 1, fixed_rate_options(500), cache);
  expect_same_jobs(full, band.trace, 1, "empty core");
  EXPECT_EQ(band.trace.jobs[2][0].completion, 30u);
}

TEST(RtSlackProfile, CacheReusesAMatchingProfileAndRebuildsOtherwise) {
  const std::vector<sim::SimTask> rt = {make_task("a", 3, 10, 10, 0, 0)};
  sim::RtSlackProfileCache cache;
  const sim::RtSlackProfile* first = &cache.get(rt, 100);
  EXPECT_EQ(&cache.get(rt, 100), first);
  EXPECT_TRUE(cache.get(rt, 100).matches(rt, 100));
  EXPECT_FALSE(cache.get(rt, 100).matches(rt, 101));
  auto slower = rt;
  slower[0].period = 11;
  EXPECT_TRUE(cache.get(slower, 100).matches(slower, 100));
  EXPECT_FALSE(cache.get(slower, 100).matches(rt, 100));
}

TEST(RtSlackProfile, TiedReleasesMatchTheEngineSegments) {
  // Harmonic periods and a few shared offsets release several jobs of a core
  // at one instant, so the release walk breaks many ties.  Its busy intervals
  // must still be the engine's execution segments, merged where they touch,
  // with the same busy prefix.  Loads reach past 1, so some cores miss
  // deadlines and run a backlog; the engine gets grace to drain it all.
  hydra::util::Xoshiro256 rng(4242);
  const std::vector<SimTime> offsets = {0, 5, 20};
  const SimTime horizon = 2'000;
  std::size_t tied_instants = 0;
  std::size_t simulated_cores = 0;
  for (int draw = 0; draw < 40; ++draw) {
    const std::size_t cores = 1 + rng.uniform_int(0, 2);
    std::vector<sim::SimTask> rt;
    SimTime demand = 0;
    for (std::size_t core = 0; core < cores; ++core) {
      const SimTime base = 10 * (1 + rng.uniform_int(0, 4));
      const std::size_t count = 2 + rng.uniform_int(0, 4);
      std::map<SimTime, std::size_t> releases_at;
      for (std::size_t k = 0; k < count; ++k) {
        const SimTime period = base << rng.uniform_int(0, 3);
        const SimTime wcet = 1 + rng.uniform_int(0, period / count);
        const SimTime offset = offsets[rng.uniform_int(0, offsets.size() - 1)];
        rt.push_back(make_task("r" + std::to_string(rt.size()), wcet, period, period, core,
                               static_cast<int>(k), offset));
        for (SimTime r = offset; r < horizon; r += period) {
          ++releases_at[r];
          demand += wcet;
        }
      }
      for (const auto& [at, n] : releases_at) tied_instants += n > 1 ? 1 : 0;
    }
    const std::string what = "draw " + std::to_string(draw);
    const sim::RtSlackProfile profile(rt, horizon);
    simulated_cores += check_profile(profile, rt, horizon, what);

    sim::SimOptions options;
    options.horizon = horizon;
    options.grace = demand;
    options.record_segments = true;
    const sim::Trace trace = sim::simulate(rt, options);
    for (std::size_t core = 0; core < cores; ++core) {
      std::vector<sim::RtSlackProfile::Busy> merged;
      SimTime busy_before = 0;
      for (const auto& seg : trace.segments) {
        if (seg.core != core) continue;
        if (!merged.empty() && merged.back().to == seg.from) {
          merged.back().to = seg.to;
        } else {
          merged.push_back({seg.from, seg.to, busy_before});
        }
        busy_before += seg.to - seg.from;
      }
      const auto& intervals = profile.busy(core);
      ASSERT_EQ(intervals.size(), merged.size()) << what << " core " << core;
      for (std::size_t k = 0; k < merged.size(); ++k) {
        const std::string at = what + " core " + std::to_string(core) + " interval " +
                               std::to_string(k);
        EXPECT_EQ(intervals[k].from, merged[k].from) << at;
        EXPECT_EQ(intervals[k].to, merged[k].to) << at;
        EXPECT_EQ(intervals[k].busy_before, merged[k].busy_before) << at;
      }
    }
  }
  EXPECT_GE(tied_instants, 1'000u) << "the batch no longer ties releases";
  EXPECT_GE(simulated_cores, 1u) << "the batch no longer overloads a core";
}

TEST(RtSlackProfile, RejectsTasksThatWouldDependOnTheMonitorsOrTheSeed) {
  auto varying = make_task("a", 3, 10, 10, 0, 0);
  varying.exec_fraction_min = 0.5;
  EXPECT_THROW(sim::RtSlackProfile({varying}, 100), std::invalid_argument);

  sim::RtSlackProfileCache cache;
  // A monitor ranked above an RT task of its core is not a band task.
  EXPECT_THROW(sim::simulate_mode_band(fixed_rate({make_task("rt", 3, 10, 10, 0, 5),
                                                   make_task("mon", 3, 10, 10, 0, 1)}),
                                       1, fixed_rate_options(100), cache),
               std::invalid_argument);
}

TEST(RtSlackProfile, CursorMatchesTheFullListAcrossRestarts) {
  // A cursor walks only as far as its reads reach and restarts at t - L
  // when a read lands more than the longest busy period L past its walk.
  // Each read must equal the full list's answer.  Reads step by a little,
  // or jump to the walk's frontier (the next interval's start) plus L - 1
  // .. L + 2, so they land on both sides of the restart threshold.  Cores:
  // seeded M = 2 and 4 draws with RT on every core, harmonic periods and
  // shared offsets (releases landing exactly at an interval's end, which
  // extend it), a core whose releases chain busy periods into intervals
  // longer than L (so a restart can land inside one), and a U = 1 core whose
  // L reaches the horizon (it never restarts and walks every release).
  const SimTime horizon = 20'000;
  const std::vector<SimTime> offsets = {0, 3, 10};
  hydra::util::Xoshiro256 rng(77);
  std::size_t restarting_cores = 0;
  for (const std::size_t m : {2u, 4u}) {
    for (int draw = 0; draw < 6; ++draw) {
      std::vector<sim::SimTask> rt;
      for (std::size_t core = 0; core < m; ++core) {
        const SimTime base = 10 * (1 + rng.uniform_int(0, 3));
        const std::size_t count = 2 + rng.uniform_int(0, 3);
        for (std::size_t k = 0; k < count; ++k) {
          const SimTime period = base << rng.uniform_int(0, 3);
          const SimTime wcet = 1 + rng.uniform_int(0, period * 9 / (10 * count));
          rt.push_back(make_task("r" + std::to_string(rt.size()), wcet, period, period, core,
                                 static_cast<int>(k),
                                 offsets[rng.uniform_int(0, offsets.size() - 1)]));
        }
      }
      if (draw == 0) {
        // Core 0 becomes the chained core: L = 10, but b's release at 5
        // and a's at 10 each land exactly where the backlog empties, so
        // [0, 15) is one interval.  Core 1 is the U = 1 core that never
        // restarts: 101/202 + 103/206, whose hyperperiod 20,806 (its L)
        // passes the horizon.
        rt.erase(std::remove_if(rt.begin(), rt.end(),
                                [](const sim::SimTask& t) { return t.core < 2; }),
                 rt.end());
        rt.push_back(make_task("chain_a", 5, 10, 10, 0, 0));
        rt.push_back(make_task("chain_b", 5, 40, 40, 0, 1, 5));
        rt.push_back(make_task("lcm_a", 101, 202, 202, 1, 0));
        rt.push_back(make_task("lcm_b", 103, 206, 206, 1, 1));
      }
      const sim::RtSlackProfile full(rt, horizon);
      const sim::RtSlackProfile lazy(rt, horizon);
      for (std::size_t core = 0; core < m; ++core) {
        const std::string what = "M=" + std::to_string(m) + " draw " + std::to_string(draw) +
                                 " core " + std::to_string(core);
        std::vector<sim::SimTask> on_core;
        for (const auto& t : rt) {
          if (t.core == core) on_core.push_back(t);
        }
        const std::size_t walked_before = sim::rt_releases_walked();
        const std::size_t restarts_before = sim::rt_walk_restarts();
        sim::RtSlackProfile::Cursor cursor(lazy, core);
        const SimTime longest = longest_busy_of(on_core, horizon);
        const auto& busy = full.busy(core);
        // The walk of the full list is not the cursor's.
        const std::size_t walked_mid = sim::rt_releases_walked();
        SimTime t = 0;
        std::size_t reads = 0;
        while (t < horizon + 1'000) {
          const auto expected = state_at(busy, t);
          const auto got = cursor.at(t);
          ASSERT_EQ(got.busy, expected.busy) << what << " t " << t;
          ASSERT_EQ(got.until, expected.until) << what << " t " << t;
          ++reads;
          // The walk's frontier: the start of the interval after the one
          // the read landed in or before.
          const auto it = std::upper_bound(
              busy.begin(), busy.end(), t,
              [](SimTime value, const sim::RtSlackProfile::Busy& b) { return value < b.to; });
          const bool jump = longest != std::numeric_limits<SimTime>::max() &&
                            it != busy.end() && it + 1 != busy.end() && rng.uniform_int(0, 2) == 0;
          t = jump ? (it + 1)->from + longest - 1 + rng.uniform_int(0, 3)
                   : t + 1 + rng.uniform_int(0, 40);
        }
        EXPECT_GT(reads, 100u) << what;
        const std::size_t restarts = sim::rt_walk_restarts() - restarts_before;
        const std::size_t walked = sim::rt_releases_walked() - walked_mid;
        // busy() walked every release of the core once.
        EXPECT_EQ(walked_mid - walked_before, releases_of(on_core, horizon)) << what;
        if (longest == std::numeric_limits<SimTime>::max()) {
          EXPECT_EQ(restarts, 0u) << what;
          EXPECT_EQ(walked, releases_of(on_core, horizon)) << what;
        } else {
          EXPECT_LE(walked, releases_of(on_core, horizon)) << what;
          restarting_cores += restarts > 0 ? 1 : 0;
        }
        if (draw == 0 && core == 0) {
          EXPECT_EQ(longest, 10u);
          ASSERT_FALSE(busy.empty());
          EXPECT_EQ(busy[0].to, 15u) << "the releases no longer chain past L";
          EXPECT_GT(restarts, 0u) << what;
        }
        if (draw == 0 && core == 1) {
          EXPECT_EQ(longest, std::numeric_limits<SimTime>::max()) << what;
        }
      }
    }
  }
  EXPECT_GE(restarting_cores, 20u) << "the batch no longer restarts its cursors";
}

// ---------------------------------------------------------------------------
// RtSlackProfile: the RTA certificate
// ---------------------------------------------------------------------------

TEST(RtSlackProfile, ResponseTimeEqualToTheDeadlineIsCertified) {
  // c's response-time iteration runs 3, 4, 5, 6: R = 6.  D = 6 is certified
  // with no simulation; at D = 5 an iterate lands exactly on the deadline
  // before the fixed point passes it, and the profile falls back to the
  // engine, which sees c miss at the synchronous release.
  const SimTime horizon = 300;
  for (const SimTime deadline : {6u, 5u}) {
    const std::vector<sim::SimTask> rt = {make_task("a", 1, 2, 2, 0, 0),
                                          make_task("b", 1, 3, 3, 0, 1),
                                          make_task("c", 1, 10, deadline, 0, 2)};
    const std::string what = "D = " + std::to_string(deadline);
    const sim::RtSlackProfile profile(rt, horizon);
    EXPECT_EQ(check_profile(profile, rt, horizon, what), deadline == 6u ? 0u : 1u) << what;
    if (deadline == 6u) {
      EXPECT_EQ(profile.deadline_misses(), 0u);
    } else {
      EXPECT_GT(profile.deadline_misses(), 0u);
    }
  }
}

TEST(RtSlackProfile, ReleaseOffsetsTheAnalysisCannotSeeAreSimulated) {
  // b is released 5 ticks after a, so it never meets a's demand and every job
  // finishes exactly at its deadline.  RTA assumes the synchronous release
  // (R = 10 > D = 5) and cannot certify the core; the simulation reports 0.
  const SimTime horizon = 400;
  const std::vector<sim::SimTask> rt = {make_task("a", 5, 10, 10, 0, 0),
                                        make_task("b", 5, 10, 5, 0, 1, 5)};
  const sim::RtSlackProfile profile(rt, horizon);
  EXPECT_EQ(check_profile(profile, rt, horizon, "offset"), 1u);
  EXPECT_EQ(profile.deadline_misses(), 0u);
}

TEST(RtSlackProfile, ResponseTimePastThePeriodIsSimulatedEvenWithinTheDeadline) {
  // b's first job responds in 17 ticks, inside D = 30 but past T = 12, so its
  // next job arrives into a backlog: U = 1.08, and later jobs miss.  Only
  // the simulation sees that.
  const SimTime horizon = 1200;
  const std::vector<sim::SimTask> rt = {make_task("a", 5, 10, 10, 0, 0),
                                        make_task("b", 7, 12, 30, 0, 1)};
  const sim::RtSlackProfile profile(rt, horizon);
  EXPECT_EQ(check_profile(profile, rt, horizon, "D > T"), 1u);
  EXPECT_GT(profile.deadline_misses(), 0u);
}

TEST(RtSlackProfile, InvalidInputFailsWithTheEngineMessage) {
  // Both task sets would pass RTA but for their defect; the profile must
  // still throw what sim::simulate throws.
  const std::vector<std::pair<std::vector<sim::SimTask>, std::string>> cases = {
      {{make_task("a", 3, 10, 10, 0, 0), make_task("b", 3, 20, 20, 0, 0)},
       "duplicate priority on core 0"},
      {{make_task("a", 3, 10, 10, 0, 0), make_task("b", 0, 20, 20, 0, 1)},
       "task 'b' needs positive WCET/period/deadline"}};
  for (const auto& [rt, expected] : cases) {
    std::string engine_message;
    std::string profile_message;
    sim::SimOptions options;
    options.horizon = 100;
    try {
      sim::simulate(rt, options);
    } catch (const std::invalid_argument& e) {
      engine_message = e.what();
    }
    try {
      sim::RtSlackProfile(rt, 100);
    } catch (const std::invalid_argument& e) {
      profile_message = e.what();
    }
    EXPECT_NE(engine_message.find(expected), std::string::npos) << engine_message;
    EXPECT_EQ(profile_message, engine_message);
  }
}

TEST(SlackBand, InvalidInputFailsWithTheFullEngineMessage) {
  // Two monitors share a priority on core 0 and two RT tasks on core 1.  The
  // full engine reports core 0 first; the band checks every core before it
  // simulates the RT tasks, whose own check would report core 1.
  const std::vector<sim::SimTask> tasks = {
      make_task("rt0", 3, 10, 10, 0, 0), make_task("rt1", 3, 10, 10, 1, 0),
      make_task("rt2", 3, 10, 10, 1, 0), make_task("mon0", 3, 10, 10, 0, 4),
      make_task("mon1", 3, 10, 10, 0, 4)};
  std::string full_message;
  std::string band_message;
  try {
    sim::simulate_mode_switching(fixed_rate(tasks), fixed_rate_options(100));
  } catch (const std::invalid_argument& e) {
    full_message = e.what();
  }
  sim::RtSlackProfileCache cache;
  try {
    sim::simulate_mode_band(fixed_rate(tasks), 3, fixed_rate_options(100), cache);
  } catch (const std::invalid_argument& e) {
    band_message = e.what();
  }
  EXPECT_NE(full_message.find("core 0"), std::string::npos) << full_message;
  EXPECT_EQ(full_message, band_message);
}

// ---------------------------------------------------------------------------
// Differential: band engines against the full engines
// ---------------------------------------------------------------------------

TEST(SlackBand, SeededBatchesMatchTheFullEngines) {
  std::size_t checked = 0;
  const std::size_t restarts_before = sim::rt_walk_restarts();
  for (const std::size_t m : {2u, 4u}) {
    hydra::gen::SyntheticConfig config;
    config.num_cores = m;
    // Shorter monitor periods than the paper's keep the attack window, and
    // so the horizon, small.
    config.sec_period_des_lo = 100.0;
    config.sec_period_des_hi = 300.0;
    config.sec_period_max_factor = 4.0;
    for (const double load : {0.25, 0.45, 0.7}) {
      hydra::util::Xoshiro256 rng(1000 * m + static_cast<std::uint64_t>(load * 100));
      for (int draw = 0; draw < 2; ++draw) {
        const auto drawn = hydra::gen::generate_filtered_instance(
            config, load * static_cast<double>(m), rng);
        if (!drawn.has_value()) continue;
        const auto allocation = core::ContegoAllocator().allocate(drawn->instance);
        if (!allocation.feasible) continue;
        sim::RtSlackProfileCache cache;
        const std::string what = "M=" + std::to_string(m) + " U=" + std::to_string(load) +
                                 " draw " + std::to_string(draw);
        // Contego's allocations pass RTA, so the certificate spares every
        // core its simulation.
        EXPECT_EQ(check_allocation(drawn->instance, allocation, horizon_for(drawn->instance),
                                   what, cache)
                      .simulated_cores,
                  0u)
            << what;
        ++checked;

        // The same tasks with RT work on every core and each monitor on a
        // core with RT work: the partitioned band builds the monitors'
        // cores' lists, and the global band has no RT-free core, so it
        // reads the RT cores whenever a monitor job is pending and its
        // cursors restart across the gaps between monitor episodes.
        const std::size_t nr = drawn->instance.rt_tasks.size();
        const SimTime horizon = horizon_for(drawn->instance);
        const auto tasks = spread_over_every_core(
            sim::build_sim_tasks(drawn->instance, allocation), nr, m);
        sim::RtSlackProfileCache spread_cache;
        sim::SimOptions options;
        options.horizon = horizon;
        expect_same_jobs(sim::simulate(tasks, options),
                         sim::simulate_mode_band(fixed_rate(tasks), nr,
                                                 fixed_rate_options(horizon), spread_cache)
                             .trace,
                         nr, what + " spread static");
        std::vector<sim::GlobalSimTask> global;
        for (std::size_t i = 0; i < tasks.size(); ++i) global.push_back({tasks[i], i >= nr});
        sim::GlobalSimOptions global_options;
        global_options.horizon = horizon;
        global_options.num_cores = m;
        expect_same_jobs(oracle::simulate_global_slack(global, global_options),
                         sim::simulate_global_band(global, global_options, spread_cache), nr,
                         what + " spread global");
      }
    }
  }
  EXPECT_GE(checked, 8u) << "the seeded batches no longer reach the band engines";
  EXPECT_GT(sim::rt_walk_restarts(), restarts_before)
      << "the global band's cursors no longer restart";
}

TEST(SlackBand, GlobalBandWithRtFreeCoresSkipsTheRtWalk) {
  // Cursors only: a fresh profile's global band with every RT core walked
  // from scratch.  With RT on every core and each monitor job pending
  // alone most of the time, the cursors restart instead of walking the
  // gaps; the walk stays short of the releases.
  const std::size_t nr = 4;
  const SimTime horizon = 200'000;
  const std::vector<sim::SimTask> tasks = {
      make_task("r0", 3, 20, 20, 0, 0), make_task("r1", 5, 50, 50, 0, 1),
      make_task("r2", 4, 25, 25, 1, 0), make_task("r3", 9, 100, 100, 1, 1),
      make_task("mon", 30, 5'000, 5'000, 0, 2)};
  std::vector<sim::GlobalSimTask> global;
  for (std::size_t i = 0; i < tasks.size(); ++i) global.push_back({tasks[i], i >= nr});
  sim::GlobalSimOptions options;
  options.horizon = horizon;
  options.num_cores = 2;
  sim::RtSlackProfileCache cache;
  const std::size_t walked_before = sim::rt_releases_walked();
  const sim::Trace band = sim::simulate_global_band(global, options, cache);
  const std::size_t walked = sim::rt_releases_walked() - walked_before;
  expect_same_jobs(oracle::simulate_global_slack(global, options), band, nr, "two RT cores");
  const std::vector<sim::SimTask> rt(tasks.begin(), tasks.begin() + nr);
  EXPECT_LT(walked * 10, releases_of(rt, horizon)) << walked;

  // A third, RT-free core holds every pending job, so no RT core is read.
  options.num_cores = 3;
  const std::size_t walked_free = sim::rt_releases_walked();
  expect_same_jobs(oracle::simulate_global_slack(global, options),
                   sim::simulate_global_band(global, options, cache), nr, "an RT-free core");
  EXPECT_EQ(sim::rt_releases_walked(), walked_free);
}

TEST(SlackBand, Fig5RowsWithRtFreeMonitorCoresWalkAFifthOfTheirReleases) {
  // Fig. 5 rows as perfbench's runtime-adapt draws them (M = 2, contego,
  // total utilization 0.5, 0.75 and 1.0, 100 s, 3 levels), each row's six
  // measurements (three policies plus the static, minimum-mode and global
  // baselines) on one profile, as exp/metrics.cpp runs them.  Contego packs
  // the RT tasks onto one core and the monitors onto the other, so the
  // partitioned runs read only the RT-free core and the global band reads
  // the RT core only while both cores are needed.  Building each core's list
  // eagerly would walk every release of every row.
  hydra::util::Xoshiro256 rng(5);
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  std::size_t walked_total = 0;
  std::size_t releases_total = 0;
  for (const double load : {0.5, 0.75, 1.0}) {
    for (std::size_t rows = 0; rows < 4;) {
      const auto drawn = hydra::gen::generate_filtered_instance(config, load, rng);
      if (!drawn.has_value()) continue;
      const core::Instance& instance = drawn->instance;
      const auto allocation = core::ContegoAllocator().allocate(instance);
      if (!allocation.feasible) continue;
      bool ticks = true;
      for (const auto& t : instance.rt_tasks) ticks = ticks && hydra::util::to_ticks(t.wcet) > 0;
      for (const auto& t : instance.security_tasks) {
        ticks = ticks && hydra::util::to_ticks(t.wcet) > 0;
      }
      if (!ticks) continue;
      const auto tasks = sim::build_sim_tasks(instance, allocation);
      const std::size_t nr = instance.rt_tasks.size();
      const std::vector<sim::SimTask> rt(tasks.begin(), tasks.begin() + nr);
      for (std::size_t i = nr; i < tasks.size(); ++i) {
        for (const auto& r : rt) {
          ASSERT_NE(r.core, tasks[i].core) << "contego no longer keeps the monitors off RT";
        }
      }

      sim::DetectionConfig detection;
      detection.horizon = 100'000 * kMs;
      detection.trials = 120;
      sim::ModeControllerConfig controller;
      controller.num_levels = 3;
      sim::RtSlackProfileCache profiles;
      const std::size_t walked_before = sim::rt_releases_walked();
      for (const char* policy : {"hysteresis", "boost", "never-switch"}) {
        controller.policy = policy;
        sim::measure_detection_times_adaptive(instance, allocation, detection, controller,
                                              &profiles);
      }
      sim::measure_detection_times(instance, allocation, detection, &profiles);
      sim::measure_detection_times(instance, core::min_mode_allocation(instance, allocation),
                                   detection, &profiles);
      sim::measure_detection_times_global(instance, allocation, detection, &profiles);
      const std::size_t walked = sim::rt_releases_walked() - walked_before;
      const std::size_t releases = releases_of(rt, detection.horizon);
      // Rows where the monitors often need both cores walk up to about 40%.
      EXPECT_LT(walked * 2, releases) << "U = " << load << " row " << rows;
      walked_total += walked;
      releases_total += releases;
      ++rows;
    }
  }
  EXPECT_LT(walked_total * 5, releases_total) << walked_total << " of " << releases_total;
}

TEST(SlackBand, CorpusWorkloadsMatchTheFullEngines) {
  std::size_t checked = 0;
  for (const char* dir : {"/tests/corpus", "/tests/corpus_controller"}) {
    for (const auto& file : testlib::corpus_workloads(std::string(HYDRA_SOURCE_DIR) + dir)) {
      const auto instance = hydra::io::load_instance(file.string());
      if (instance.security_tasks.empty()) continue;
      const auto allocation = core::ContegoAllocator().allocate(instance);
      if (!allocation.feasible) continue;
      sim::RtSlackProfileCache cache;
      check_allocation(instance, allocation, horizon_for(instance), file.filename().string(),
                       cache);
      ++checked;
    }
  }
  EXPECT_GE(checked, 10u) << "the corpus no longer reaches the band engines";
}

TEST(SlackBand, RtDeadlineMissesOfTheCommittedInstanceMatch) {
  const auto instance = hydra::io::load_instance(
      std::string(HYDRA_SOURCE_DIR) + "/tests/corpus_sim/contego_tick_rounding_miss_2core.txt");
  const auto allocation = core::ContegoAllocator().allocate(instance);
  ASSERT_TRUE(allocation.feasible);
  sim::RtSlackProfileCache cache;
  const SimTime horizon = 100'000 * kMs;
  const AllocationCheck checked =
      check_allocation(instance, allocation, horizon, "tick-rounding miss", cache);
  EXPECT_GT(checked.static_misses, 0u);
  // The rounded RT set fails RTA, so its core still runs in the engine.
  EXPECT_GT(checked.simulated_cores, 0u);
  sim::DetectionConfig config;
  config.horizon = horizon;
  EXPECT_GT(sim::measure_detection_times(instance, allocation, config, &cache).deadline_misses,
            0u);
}

TEST(SlackBand, RtOverloadPastTheHardStopMatches) {
  // Core 0 is overloaded (U = 1.25): its RT backlog grows by 5 ticks every
  // 20 and is still running at horizon + grace, so RT jobs miss by running
  // late and by never finishing, and core 0's monitor starves.  Core 1 has
  // slack for the global band.
  const SimTime horizon = 2000;
  const std::vector<sim::SimTask> tasks = {
      make_task("rt_a", 15, 20, 20, 0, 0), make_task("rt_b", 10, 20, 20, 0, 1),
      make_task("rt_c", 30, 100, 100, 1, 0), make_task("mon0", 40, 400, 400, 0, 2),
      make_task("mon1", 25, 300, 300, 1, 3)};
  const std::size_t nr = 3;

  sim::SimOptions options;
  options.horizon = horizon;
  const sim::Trace full = sim::simulate(tasks, options);
  bool cut_off = false;
  for (std::size_t i = 0; i < nr; ++i) {
    for (const auto& job : full.jobs[i]) cut_off = cut_off || !job.completed;
  }
  ASSERT_TRUE(cut_off) << "the RT backlog must run past horizon + grace";
  ASSERT_GT(full.deadline_misses(), 0u);
  // Only the overloaded core needs the engine.
  const std::vector<sim::SimTask> rt(tasks.begin(), tasks.begin() + nr);
  EXPECT_EQ(check_profile(sim::RtSlackProfile(rt, horizon), rt, horizon, "overload RT"), 1u);
  sim::RtSlackProfileCache cache;
  const auto band = sim::simulate_mode_band(fixed_rate(tasks), nr, fixed_rate_options(horizon),
                                            cache);
  expect_same_jobs(full, band.trace, nr, "overload static");
  EXPECT_EQ(full.deadline_misses(), band.trace.deadline_misses());

  std::vector<sim::GlobalSimTask> global;
  for (std::size_t i = 0; i < tasks.size(); ++i) global.push_back({tasks[i], i >= nr});
  sim::GlobalSimOptions global_options;
  global_options.horizon = horizon;
  global_options.num_cores = 2;
  const sim::Trace global_full = oracle::simulate_global_slack(global, global_options);
  ASSERT_GT(global_full.deadline_misses(), 0u);
  expect_same_jobs(global_full, sim::simulate_global_band(global, global_options, cache), nr,
                   "overload global");

  // A switchable monitor on each core, attacked twice.
  auto mode_tasks = fixed_rate(tasks);
  mode_tasks[3].adapted_period = 200;
  mode_tasks[4].adapted_period = 150;
  mode_tasks[4].levels = {220};
  for (const auto& policy : kPolicies) {
    sim::ModeSwitchOptions mode_options;
    mode_options.horizon = horizon;
    mode_options.controller.policy = policy;
    mode_options.attack_times = {350, 900};
    const auto mode_full = sim::simulate_mode_switching(mode_tasks, mode_options);
    const auto mode_band = sim::simulate_mode_band(mode_tasks, nr, mode_options, cache);
    ASSERT_GT(mode_full.trace.deadline_misses(), 0u) << policy;
    expect_same_jobs(mode_full.trace, mode_band.trace, nr, "overload " + policy);
    expect_same_stats(mode_full.stats, mode_band.stats, "overload " + policy);
  }
}

TEST(SlackBand, MonitorBacklogRunsInReleaseOrderOnBothPaths) {
  // Core 0 is overloaded by its monitor (U = 0.5 + 0.43 + 0.8): `m` falls
  // further behind every period while RT completions reshuffle the full
  // engines' job lists.  A task's backlogged jobs run in release order in
  // every engine, so the band matches job for job.
  const SimTime horizon = 300;
  const std::vector<sim::SimTask> tasks = {
      make_task("a", 5, 10, 10, 0, 0), make_task("b", 3, 7, 7, 0, 1),
      make_task("m", 8, 10, 10, 0, 2), make_task("m2", 4, 30, 30, 0, 3)};
  const std::size_t nr = 2;
  sim::SimOptions options;
  options.horizon = horizon;
  const sim::Trace full = sim::simulate(tasks, options);
  sim::RtSlackProfileCache cache;
  const auto band =
      sim::simulate_mode_band(fixed_rate(tasks), nr, fixed_rate_options(horizon), cache);
  expect_same_jobs(full, band.trace, nr, "monitor backlog");
  const auto mode_full =
      sim::simulate_mode_switching(fixed_rate(tasks), fixed_rate_options(horizon));
  expect_same_jobs(mode_full.trace, band.trace, nr, "monitor backlog, mode engine");
  SimTime last = 0;
  std::size_t completed = 0;
  for (const auto& job : full.jobs[2]) {
    if (!job.completed) continue;
    EXPECT_GT(job.completion, last);
    last = job.completion;
    ++completed;
  }
  EXPECT_GT(completed, 1u);

  std::vector<sim::GlobalSimTask> global;
  for (std::size_t i = 0; i < tasks.size(); ++i) global.push_back({tasks[i], i >= nr});
  sim::GlobalSimOptions global_options;
  global_options.horizon = horizon;
  global_options.num_cores = 1;
  expect_same_jobs(oracle::simulate_global_slack(global, global_options),
                   sim::simulate_global_band(global, global_options, cache), nr,
                   "monitor backlog, global");
}
