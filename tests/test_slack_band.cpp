// Differential oracle for the band engines (sim/slack_profile.h).
//
// The detection measurements simulate the RT tasks once (sim::RtSlackProfile)
// and schedule only the monitors on the idle time that leaves.  The full
// engines — the per-core loop behind sim::simulate and
// sim::simulate_mode_switching, and sim::simulate_global_slack — stay the
// general API and serve here as the oracle: on every input below the band path must reproduce each monitor's
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
// mapping at its edges, and the RTA certificate that spares a core its RT
// simulation: on every input above the profile's miss count equals a direct
// sim::simulate of the RT tasks, the seeded batches need no simulation, and
// hand-built cores pin R == D, release offsets, R > T and invalid input.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/contego.h"
#include "core/mode_table.h"
#include "gen/synthetic.h"
#include "gp_testlib.h"
#include "io/taskset_io.h"
#include "sim/attack.h"
#include "sim/engine.h"
#include "sim/global_slack.h"
#include "sim/mode_switch.h"
#include "sim/slack_profile.h"
#include "util/rng.h"

namespace core = hydra::core;
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
    const sim::Trace full = sim::simulate_global_slack(global, options);
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
  // Horizon 100, grace 100: hard stop 200.  RT busy [0, 50) and [99, 149)
  // leave 49 idle ticks before 149; a 100-tick monitor needs 51 more and
  // completes exactly at 200.  One tick more and it is cut off.
  for (const SimTime wcet : {100u, 101u}) {
    const std::vector<sim::SimTask> tasks = {make_task("a", 50, 100, 100, 0, 0),
                                             make_task("b", 50, 1000, 50, 0, 1, 99),
                                             make_task("mon", wcet, 300, 300, 0, 2)};
    sim::SimOptions options;
    options.horizon = 100;
    options.grace = 100;
    const sim::Trace full = sim::simulate(tasks, options);
    auto band_options = fixed_rate_options(100);
    band_options.grace = 100;
    sim::RtSlackProfileCache cache;
    const auto band = sim::simulate_mode_band(fixed_rate(tasks), 2, band_options, cache);
    expect_same_jobs(full, band.trace, 2, "hard stop, wcet " + std::to_string(wcet));
    const sim::JobRecord& job = band.trace.jobs[2][0];
    EXPECT_EQ(job.start, 50u);
    EXPECT_EQ(job.completed, wcet == 100u);
    if (wcet == 100u) {
      EXPECT_EQ(job.completion, 200u);
    }
    EXPECT_EQ(job.deadline_missed, wcet != 100u);
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
      }
    }
  }
  EXPECT_GE(checked, 8u) << "the seeded batches no longer reach the band engines";
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
  const sim::Trace global_full = sim::simulate_global_slack(global, global_options);
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
  expect_same_jobs(sim::simulate_global_slack(global, global_options),
                   sim::simulate_global_band(global, global_options, cache), nr,
                   "monitor backlog, global");
}
