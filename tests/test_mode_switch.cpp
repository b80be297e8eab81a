// Tests for the runtime mode-switching layer: mode-table construction, the
// controller's tighten/relax/hysteresis/budget semantics, determinism (fixed
// seed and --jobs byte-identity through a sweep), equivalence with the static
// engine when switching is disabled, the adaptive metrics' per-thread bundle
// memo (a hit only when every input is unchanged) and the minimum-mode run
// the never-switch family shares with the baseline, and the latency-dominance
// property — mode-switching detection is never worse than the static minimum
// mode on feasible seeded batches.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/contego.h"
#include "core/mode_table.h"
#include "exp/metrics.h"
#include "exp/sinks.h"
#include "exp/sweep.h"
#include "gen/synthetic.h"
#include "gen/uav.h"
#include "gp_testlib.h"
#include "io/taskset_io.h"
#include "sim/attack.h"
#include "sim/engine.h"
#include "sim/mode_switch.h"
#include "sim/slack_profile.h"
#include "stats/summary.h"

namespace core = hydra::core;
namespace sim = hydra::sim;
namespace hexp = hydra::exp;
using hydra::util::SimTime;

namespace {

constexpr SimTime kMs = hydra::util::kTicksPerMilli;

sim::ModeTask fixed_task(const std::string& name, SimTime wcet, SimTime period,
                         std::size_t core, int priority, SimTime offset = 0) {
  sim::ModeTask mt;
  mt.task.name = name;
  mt.task.wcet = wcet;
  mt.task.period = period;
  mt.task.deadline = period;
  mt.task.core = core;
  mt.task.priority = priority;
  mt.task.release_offset = offset;
  return mt;
}

sim::ModeTask monitor_task(const std::string& name, SimTime wcet, SimTime min_period,
                           SimTime adapted_period, std::size_t core, int priority) {
  sim::ModeTask mt = fixed_task(name, wcet, min_period, core, priority);
  mt.adapted_period = adapted_period;
  return mt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Mode tables (core layer)
// ---------------------------------------------------------------------------

TEST(ModeTable, BuiltFromFeasibleAllocation) {
  const auto instance = hydra::gen::uav_case_study(2);
  const auto allocation = core::ContegoAllocator().allocate(instance);
  ASSERT_TRUE(allocation.feasible);
  const auto table = core::build_mode_table(instance, allocation);
  ASSERT_EQ(table.modes.size(), instance.security_tasks.size());
  for (std::size_t s = 0; s < table.modes.size(); ++s) {
    const auto& mode = table.modes[s];
    EXPECT_EQ(mode.min_period, instance.security_tasks[s].period_max);
    EXPECT_GE(mode.adapted_period,
              instance.security_tasks[s].period_des - hydra::util::kTimeEpsilon);
    EXPECT_LE(mode.adapted_period, mode.min_period);
    EXPECT_EQ(mode.core, allocation.placements[s].core);
  }
  // Contego tightens the UAV monitors on 2 cores, so every mode has headroom.
  EXPECT_EQ(table.switchable_tasks(), instance.security_tasks.size());
}

TEST(ModeTable, NoAdaptAllocationHasNoHeadroom) {
  const auto instance = hydra::gen::uav_case_study(2);
  // Contego without its tightening pass: the minimum-mode projection.
  const auto allocation =
      core::min_mode_allocation(instance, core::ContegoAllocator().allocate(instance));
  const auto table = core::build_mode_table(instance, allocation);
  EXPECT_EQ(table.switchable_tasks(), 0u);
  for (std::size_t s = 0; s < table.modes.size(); ++s) {
    EXPECT_FALSE(table.has_headroom(s));
  }
}

TEST(ModeTable, RejectsInfeasibleAndOutOfBox) {
  const auto instance = hydra::gen::uav_case_study(2);
  core::Allocation infeasible;
  EXPECT_THROW(core::build_mode_table(instance, infeasible), std::invalid_argument);

  auto allocation = core::ContegoAllocator().allocate(instance);
  ASSERT_TRUE(allocation.feasible);
  allocation.placements[0].period = instance.security_tasks[0].period_max * 2.0;
  EXPECT_THROW(core::build_mode_table(instance, allocation), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Controller semantics
// ---------------------------------------------------------------------------

TEST(ModeController, TightensOnIdleCoreAtFirstBoundary) {
  // A monitor alone on a core: the first release with observed history
  // (t = min period) sees an almost idle window and tightens.
  const auto mon = monitor_task("mon", 10, 1000, 100, 0, 0);
  sim::ModeSwitchOptions opts;
  opts.horizon = 20000;
  const auto run = sim::simulate_mode_switching({mon}, opts);
  ASSERT_EQ(run.stats.switches[0], 1u);
  ASSERT_EQ(run.stats.events.size(), 1u);
  EXPECT_EQ(run.stats.events[0].task, 0u);
  EXPECT_EQ(run.stats.events[0].at, 1000u);
  EXPECT_TRUE(run.stats.events[0].to_adapted);
  // One minimum-mode job (the first), everything after in adapted mode.
  EXPECT_EQ(run.stats.min_jobs[0], 1u);
  EXPECT_EQ(run.stats.adapted_jobs[0], (20000u - 1000u) / 100u);
  EXPECT_EQ(run.trace.deadline_misses(), 0u);
}

TEST(ModeController, StaysConservativeWithoutSlack) {
  // RT demand 0.9 on the shared core: the idle fraction never reaches the
  // tighten threshold and the monitor never leaves minimum mode.
  const auto rt = fixed_task("rt", 90, 100, 0, 0);
  const auto mon = monitor_task("mon", 5, 1000, 100, 0, 1);
  sim::ModeSwitchOptions opts;
  opts.horizon = 50000;
  const auto run = sim::simulate_mode_switching({rt, mon}, opts);
  EXPECT_EQ(run.stats.total_switches(), 0u);
  EXPECT_EQ(run.stats.adapted_jobs[1], 0u);
  EXPECT_EQ(run.stats.adapted_residency[1], 0u);
  EXPECT_DOUBLE_EQ(run.stats.adapted_fraction(1), 0.0);
}

TEST(ModeController, FallsBackWhenLoadArrives) {
  // Idle start: the monitor tightens at its first boundary.  At t = 50 s a
  // 0.9-utilization RT task starts releasing; once the window fills with its
  // demand the monitor falls back to minimum mode and stays there.
  const auto rt = fixed_task("late_rt", 90, 100, 0, 0, /*offset=*/50000);
  const auto mon = monitor_task("mon", 10, 1000, 100, 0, 1);
  sim::ModeSwitchOptions opts;
  opts.horizon = 100000;
  const auto run = sim::simulate_mode_switching({rt, mon}, opts);
  ASSERT_EQ(run.stats.switches[1], 2u);
  ASSERT_EQ(run.stats.events.size(), 2u);
  EXPECT_TRUE(run.stats.events[0].to_adapted);
  EXPECT_EQ(run.stats.events[0].at, 1000u);
  EXPECT_FALSE(run.stats.events[1].to_adapted);
  EXPECT_GT(run.stats.events[1].at, 50000u);
  // Residency was spent in both modes and the fractions tile the timeline.
  EXPECT_GT(run.stats.adapted_residency[1], 0u);
  EXPECT_GT(run.stats.min_residency[1], 0u);
  const double frac = run.stats.adapted_fraction(1);
  EXPECT_GT(frac, 0.0);
  EXPECT_LT(frac, 1.0);
}

TEST(ModeController, ResidencyTilesTheReleaseTimeline) {
  const auto rt = fixed_task("late_rt", 90, 100, 0, 0, /*offset=*/30000);
  const auto mon = monitor_task("mon", 10, 1000, 100, 0, 1);
  sim::ModeSwitchOptions opts;
  opts.horizon = 80000;
  const auto run = sim::simulate_mode_switching({rt, mon}, opts);
  // Per-job accounting: min + adapted residency equals the sum of chosen
  // periods, which tiles [first release, beyond the horizon].
  const SimTime total = run.stats.min_residency[1] + run.stats.adapted_residency[1];
  EXPECT_GE(total, opts.horizon);
  EXPECT_LE(total, opts.horizon + 1000u);
  const double frac_sum =
      run.stats.adapted_fraction(1) +
      static_cast<double>(run.stats.min_residency[1]) / static_cast<double>(total);
  EXPECT_DOUBLE_EQ(frac_sum, 1.0);
  // Job counts match the residency accounting.
  EXPECT_EQ(run.stats.min_jobs[1] + run.stats.adapted_jobs[1], run.trace.jobs[1].size());
}

TEST(ModeController, HysteresisRateLimitsSwitches) {
  // Bursty RT load (4 s on, 4 s off) makes the controller want to flip at
  // every phase change.  min_dwell must space committed switches, and a
  // tighter dwell can only allow MORE switches.
  const auto burst = fixed_task("burst", 4000, 8000, 0, 0);
  auto mon = monitor_task("mon", 10, 500, 100, 0, 1);
  sim::ModeSwitchOptions opts;
  opts.horizon = 200000;
  opts.controller.slack_window = 2000;
  opts.controller.tighten_threshold = 0.4;
  opts.controller.relax_threshold = 0.2;
  opts.controller.min_dwell = 12000;
  const auto damped = sim::simulate_mode_switching({burst, mon}, opts);
  ASSERT_GT(damped.stats.total_switches(), 0u);
  for (std::size_t i = 1; i < damped.stats.events.size(); ++i) {
    EXPECT_GE(damped.stats.events[i].at - damped.stats.events[i - 1].at,
              opts.controller.min_dwell)
        << "switches " << i - 1 << " -> " << i << " violate the dwell";
  }

  auto fast = opts;
  fast.controller.min_dwell = 500;
  const auto undamped = sim::simulate_mode_switching({burst, mon}, fast);
  EXPECT_GE(undamped.stats.total_switches(), damped.stats.total_switches());
}

TEST(ModeController, SwitchBudgetIsAHardCap) {
  // Same bursty scenario, budget 1: exactly one committed switch, after
  // which the task is frozen in whatever mode it reached.
  const auto burst = fixed_task("burst", 4000, 8000, 0, 0);
  const auto mon = monitor_task("mon", 10, 500, 100, 0, 1);
  sim::ModeSwitchOptions opts;
  opts.horizon = 200000;
  opts.controller.slack_window = 2000;
  opts.controller.tighten_threshold = 0.4;
  opts.controller.relax_threshold = 0.2;
  opts.controller.min_dwell = 500;
  opts.controller.switch_budget = 1;
  const auto run = sim::simulate_mode_switching({burst, mon}, opts);
  EXPECT_EQ(run.stats.switches[1], 1u);
  EXPECT_EQ(run.stats.total_switches(), 1u);
}

TEST(ModeController, AttackTiedWithAReleaseIsDeliveredWhenThatJobCompletes) {
  // The monitor released exactly at the attack instant is the scan that
  // detects it (sim/attack.h), so boost must hear of the attack when that
  // job completes, on both engines.  An 85%-loaded core keeps the slack rule
  // from ever tightening: the only switch is boost's.  The monitor released
  // at 2000 runs after the RT job, completes at 2860 and boosts the release
  // at 4000; crediting the next scan instead would boost only at 6000.
  const auto rt = fixed_task("rt", 850, 1000, 0, 0);
  const auto mon = monitor_task("mon", 10, 2000, 500, 0, 1);
  sim::ModeSwitchOptions opts;
  opts.horizon = 10000;
  opts.controller.policy = "boost";
  opts.attack_times = {2000};
  sim::RtSlackProfileCache profiles;
  const auto full = sim::simulate_mode_switching({rt, mon}, opts);
  const auto band = sim::simulate_mode_band({rt, mon}, 1, opts, profiles);
  for (const auto* run : {&full, &band}) {
    const std::string engine = run == &full ? "full" : "band";
    EXPECT_EQ(run->trace.jobs[1][1].release, 2000u) << engine;
    EXPECT_EQ(run->trace.jobs[1][1].completion, 2860u) << engine;
    EXPECT_EQ(run->stats.detections[1], 1u) << engine;
    ASSERT_FALSE(run->stats.events.empty()) << engine;
    EXPECT_EQ(run->stats.events[0].task, 1u) << engine;
    EXPECT_EQ(run->stats.events[0].at, 4000u) << engine;
    EXPECT_TRUE(run->stats.events[0].to_adapted) << engine;
  }
}

TEST(ModeController, ValidatesInputs) {
  const auto mon = monitor_task("mon", 10, 1000, 100, 0, 0);
  sim::ModeSwitchOptions opts;
  opts.horizon = 10000;

  auto bad_thresholds = opts;
  bad_thresholds.controller.relax_threshold = 0.5;
  bad_thresholds.controller.tighten_threshold = 0.5;
  EXPECT_THROW(sim::simulate_mode_switching({mon}, bad_thresholds),
               std::invalid_argument);

  // Regression: a tighten threshold above 1 used to be accepted silently and
  // produced a controller that could never switch (the idle fraction is a
  // ratio).  Same for a negative relax threshold.
  auto unreachable_tighten = opts;
  unreachable_tighten.controller.tighten_threshold = 2.0;
  EXPECT_THROW(sim::simulate_mode_switching({mon}, unreachable_tighten),
               std::invalid_argument);

  auto negative_relax = opts;
  negative_relax.controller.relax_threshold = -0.1;
  EXPECT_THROW(sim::simulate_mode_switching({mon}, negative_relax),
               std::invalid_argument);

  auto nan_threshold = opts;
  nan_threshold.controller.tighten_threshold = std::nan("");
  EXPECT_THROW(sim::simulate_mode_switching({mon}, nan_threshold),
               std::invalid_argument);

  // A zero switch budget is a controller that can never act — say it with the
  // never-switch policy instead.
  auto zero_budget = opts;
  zero_budget.controller.switch_budget = 0;
  EXPECT_THROW(sim::simulate_mode_switching({mon}, zero_budget),
               std::invalid_argument);

  auto one_level = opts;
  one_level.controller.num_levels = 1;
  EXPECT_THROW(sim::simulate_mode_switching({mon}, one_level),
               std::invalid_argument);

  auto unknown_policy = opts;
  unknown_policy.controller.policy = "no-such-policy";
  EXPECT_THROW(sim::simulate_mode_switching({mon}, unknown_policy),
               std::invalid_argument);

  // Intermediate ladder rungs must be strictly decreasing inside
  // (adapted, minimum).
  auto bad_ladder = mon;
  bad_ladder.levels = {1200};  // above the minimum-mode period
  EXPECT_THROW(sim::simulate_mode_switching({bad_ladder}, opts),
               std::invalid_argument);

  auto unsorted_attacks = opts;
  unsorted_attacks.attack_times = {500, 200};
  EXPECT_THROW(sim::simulate_mode_switching({mon}, unsorted_attacks),
               std::invalid_argument);

  auto above_min = mon;
  above_min.adapted_period = 2000;  // adapted must not loosen past minimum mode
  EXPECT_THROW(sim::simulate_mode_switching({above_min}, opts), std::invalid_argument);

  auto below_wcet = mon;
  below_wcet.adapted_period = 5;
  EXPECT_THROW(sim::simulate_mode_switching({below_wcet}, opts), std::invalid_argument);

  const auto dup_a = monitor_task("a", 10, 1000, 100, 0, 3);
  const auto dup_b = monitor_task("b", 10, 1000, 100, 0, 3);
  EXPECT_THROW(sim::simulate_mode_switching({dup_a, dup_b}, opts),
               std::invalid_argument);

  // An execution fraction the engine cannot draw from, named in the error.
  for (const double fraction : {std::nan(""), -3.0, 1.5}) {
    auto varying = mon;
    varying.task.exec_fraction_min = fraction;
    try {
      sim::simulate_mode_switching({varying}, opts);
      ADD_FAILURE() << "exec_fraction_min " << fraction << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("'mon'"), std::string::npos) << error.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence and determinism
// ---------------------------------------------------------------------------

TEST(ModeSwitchDeterminism, NeverSwitchingEqualsStaticMinimumMode) {
  // Under the never-switch policy the controller is inert: the trace must
  // equal sim::simulate's on the minimum-mode task list, job by job.  Both
  // run the same per-core loop, so this compares its controller path (policy,
  // busy history, ModeStats) with its controller-free path.
  // (Historically this test faked inertness with tighten_threshold = 1.5;
  // config validation now rejects out-of-[0,1] thresholds, and the registry
  // says it properly.)
  const auto instance = hydra::gen::uav_case_study(2);
  const auto allocation = core::ContegoAllocator().allocate(instance);
  ASSERT_TRUE(allocation.feasible);
  const auto table = core::build_mode_table(instance, allocation);
  const auto mode_tasks = sim::build_mode_tasks(instance, allocation, table);

  sim::ModeSwitchOptions mopts;
  mopts.horizon = 120000u * kMs;
  mopts.controller.policy = "never-switch";
  const auto adaptive = sim::simulate_mode_switching(mode_tasks, mopts);
  EXPECT_EQ(adaptive.stats.total_switches(), 0u);

  std::vector<sim::SimTask> min_mode;
  for (const auto& mt : mode_tasks) min_mode.push_back(mt.task);
  sim::SimOptions sopts;
  sopts.horizon = mopts.horizon;
  const auto static_run = sim::simulate(min_mode, sopts);

  ASSERT_EQ(adaptive.trace.jobs.size(), static_run.jobs.size());
  for (std::size_t t = 0; t < static_run.jobs.size(); ++t) {
    ASSERT_EQ(adaptive.trace.jobs[t].size(), static_run.jobs[t].size()) << "task " << t;
    for (std::size_t k = 0; k < static_run.jobs[t].size(); ++k) {
      EXPECT_EQ(adaptive.trace.jobs[t][k].release, static_run.jobs[t][k].release);
      EXPECT_EQ(adaptive.trace.jobs[t][k].start, static_run.jobs[t][k].start);
      EXPECT_EQ(adaptive.trace.jobs[t][k].completion, static_run.jobs[t][k].completion);
      EXPECT_EQ(adaptive.trace.jobs[t][k].completed, static_run.jobs[t][k].completed);
    }
  }
  EXPECT_EQ(adaptive.trace.core_busy, static_run.core_busy);
}

TEST(ModeSwitchDeterminism, FixedSeedReproducesTraceAndEvents) {
  // Execution variation exercises every RNG path; two runs with the same
  // seed must agree on every job, residency counter, and switch event.
  auto rt = fixed_task("rt", 40, 100, 0, 0);
  rt.task.exec_fraction_min = 0.5;
  auto mon = monitor_task("mon", 10, 1000, 100, 0, 1);
  mon.task.exec_fraction_min = 0.7;
  auto rt2 = fixed_task("rt2", 20, 80, 1, 0);
  rt2.task.exec_fraction_min = 0.6;
  const auto mon2 = monitor_task("mon2", 15, 2000, 400, 1, 1);

  sim::ModeSwitchOptions opts;
  opts.horizon = 100000;
  opts.seed = 77;
  const auto a = sim::simulate_mode_switching({rt, mon, rt2, mon2}, opts);
  const auto b = sim::simulate_mode_switching({rt, mon, rt2, mon2}, opts);

  ASSERT_EQ(a.trace.total_jobs(), b.trace.total_jobs());
  for (std::size_t t = 0; t < a.trace.jobs.size(); ++t) {
    for (std::size_t k = 0; k < a.trace.jobs[t].size(); ++k) {
      EXPECT_EQ(a.trace.jobs[t][k].release, b.trace.jobs[t][k].release);
      EXPECT_EQ(a.trace.jobs[t][k].completion, b.trace.jobs[t][k].completion);
    }
  }
  EXPECT_EQ(a.stats.switches, b.stats.switches);
  EXPECT_EQ(a.stats.min_residency, b.stats.min_residency);
  EXPECT_EQ(a.stats.adapted_residency, b.stats.adapted_residency);
  ASSERT_EQ(a.stats.events.size(), b.stats.events.size());
  for (std::size_t i = 0; i < a.stats.events.size(); ++i) {
    EXPECT_EQ(a.stats.events[i].task, b.stats.events[i].task);
    EXPECT_EQ(a.stats.events[i].at, b.stats.events[i].at);
    EXPECT_EQ(a.stats.events[i].to_adapted, b.stats.events[i].to_adapted);
  }
}

TEST(ModeSwitchDeterminism, SweepRowStreamIsIndependentOfJobCount) {
  // The adaptive metric family rides exp::Sweep worker threads; the row
  // stream (metrics included) must be byte-identical for any --jobs value.
  hexp::AdaptiveMetricsConfig config;
  config.detection.horizon = 120u * 1000u * kMs;
  config.detection.trials = 25;
  config.detection.seed = 11;
  config.include_global = true;

  const auto spec_for = [&](std::size_t jobs) {
    hexp::SweepSpec spec;
    spec.schemes = {"contego"};
    spec.replications = 3;
    spec.base_seed = 42;
    spec.jobs = jobs;
    spec.metrics = hexp::adaptive_detection_metrics(config);
    hydra::gen::SyntheticConfig synth;
    synth.num_cores = 2;
    spec.add_utilization_grid(synth, {0.8});
    return spec;
  };

  std::ostringstream serial, parallel;
  hexp::JsonlSink serial_sink(serial), parallel_sink(parallel);
  hexp::Sweep(spec_for(1)).run({&serial_sink});
  hexp::Sweep(spec_for(4)).run({&parallel_sink});
  EXPECT_FALSE(serial.str().empty());
  EXPECT_EQ(serial.str(), parallel.str());
  // The metric names actually made it into the rows.
  EXPECT_NE(serial.str().find("adaptive_mean_detection_ms"), std::string::npos);
  EXPECT_NE(serial.str().find("global_mean_detection_ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Detection under adaptation
// ---------------------------------------------------------------------------

TEST(AdaptiveDetection, CaseStudyRunsCleanAndReportsModes) {
  const auto instance = hydra::gen::uav_case_study(2);
  const auto allocation = core::ContegoAllocator().allocate(instance);
  ASSERT_TRUE(allocation.feasible);
  sim::DetectionConfig config;
  config.horizon = 150u * 1000u * kMs;
  config.trials = 60;
  config.seed = 9;
  const auto result = sim::measure_detection_times_adaptive(instance, allocation, config);
  EXPECT_EQ(result.detection.deadline_misses, 0u);
  EXPECT_EQ(result.detection.undetected, 0u);
  EXPECT_EQ(result.detection.detection_ms.size(), config.trials);
  // Contego leaves headroom on every UAV monitor at M = 2, and the idle
  // security core lets the controller spend it.
  EXPECT_EQ(result.switchable_tasks.size(), instance.security_tasks.size());
  EXPECT_GT(result.modes.total_switches(), 0u);
  EXPECT_GT(result.modes.mean_adapted_fraction(result.switchable_tasks), 0.5);
}

TEST(AdaptiveDetection, LatencyDominatesStaticMinimumMode) {
  // The ISSUE-4 property: on feasible seeded batches, mean detection latency
  // under mode switching is never worse than the static minimum mode — the
  // controller only ever *adds* monitoring frequency relative to the
  // fallback, and it does so exactly when slack exists.
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  hydra::util::Xoshiro256 rng(2024);
  sim::DetectionConfig det;
  det.horizon = 150u * 1000u * kMs;
  det.trials = 60;
  det.seed = 31;

  std::size_t compared = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto drawn = hydra::gen::generate_filtered_instance(config, 1.0, rng);
    if (!drawn.has_value()) continue;
    const auto allocation = core::ContegoAllocator().allocate(drawn->instance);
    if (!allocation.feasible) continue;

    const auto adaptive =
        sim::measure_detection_times_adaptive(drawn->instance, allocation, det);
    const auto fallback = sim::measure_detection_times(
        drawn->instance, core::min_mode_allocation(drawn->instance, allocation), det);
    ASSERT_GT(adaptive.detection.detection_ms.size(), 0u);
    ASSERT_GT(fallback.detection_ms.size(), 0u);
    EXPECT_EQ(adaptive.detection.deadline_misses, 0u);
    const double adaptive_mean =
        hydra::stats::summarize(adaptive.detection.detection_ms).mean;
    const double fallback_mean = hydra::stats::summarize(fallback.detection_ms).mean;
    EXPECT_LE(adaptive_mean, fallback_mean * 1.02) << "instance " << i;
    ++compared;
  }
  ASSERT_GE(compared, 3u) << "batch produced too few feasible comparisons";
}

TEST(AdaptiveDetection, TickRoundingCollapseYieldsFixedTask) {
  // A mode pair whose headroom vanishes at tick resolution must come out of
  // build_mode_tasks as fixed (adapted_period == 0), not as a 0-tick switcher.
  core::Instance instance;
  instance.num_cores = 1;
  instance.rt_tasks.push_back(hydra::rt::make_rt_task("rt", 1.0, 10.0));
  instance.security_tasks.push_back(
      hydra::rt::make_security_task("s", 0.5, 100.0, 100.0001));
  core::Allocation allocation;
  allocation.feasible = true;
  allocation.rt_partition.num_cores = 1;
  allocation.rt_partition.core_of = {0};
  allocation.placements = {core::TaskPlacement{0, 100.00005, 1.0}};
  const auto table = core::build_mode_table(instance, allocation);
  const auto tasks = sim::build_mode_tasks(instance, allocation, table);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[1].adapted_period, 0u);
}

// ---------------------------------------------------------------------------
// Adaptive metrics: the per-thread bundle memo
// ---------------------------------------------------------------------------

namespace {

/// A row's hook values, or the message of the hook that threw.
struct HookOutcome {
  std::vector<double> values;
  std::string error;

  bool operator==(const HookOutcome& other) const {
    return error == other.error && values.size() == other.values.size() &&
           std::memcmp(values.data(), other.values.data(),
                       values.size() * sizeof(double)) == 0;
  }
};

void PrintTo(const HookOutcome& outcome, std::ostream* os) {
  if (!outcome.error.empty()) *os << "error: " << outcome.error;
  os->precision(17);
  for (const double v : outcome.values) *os << v << ' ';
}

HookOutcome evaluate_hooks(const hexp::AdaptiveMetricsConfig& config,
                           const core::Instance& instance, const core::DesignPoint& point) {
  HookOutcome out;
  try {
    for (const auto& metric : hexp::adaptive_detection_metrics(config)) {
      out.values.push_back(metric.compute(instance, point));
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// The same evaluation on a thread of its own, whose memos start empty.
HookOutcome evaluate_hooks_cold(const hexp::AdaptiveMetricsConfig& config,
                                const core::Instance& instance,
                                const core::DesignPoint& point) {
  HookOutcome out;
  std::size_t computed = 0;
  std::size_t min_mode_runs = 0;
  std::thread worker([&] {
    out = evaluate_hooks(config, instance, point);
    computed = hexp::adaptive_bundles_computed();
    min_mode_runs = hexp::min_mode_runs_computed();
  });
  worker.join();
  EXPECT_EQ(computed, 1u) << "a cold thread computes one bundle for all its hooks";
  const bool reads_min_mode =
      config.include_min_mode || sim::is_inert_policy(config.controller.policy);
  EXPECT_EQ(min_mode_runs, reads_min_mode ? 1u : 0u) << "one minimum-mode run per row";
  return out;
}

double ulp_up(double x) { return std::nextafter(x, std::numeric_limits<double>::infinity()); }
double ulp_down(double x) { return std::nextafter(x, 0.0); }

}  // namespace

TEST(AdaptiveMetrics, BundleMemoSeesEveryInputField) {
  // One fig5 row: contego at M = 2, total utilization 1.0, the bench's
  // default detection and controller knobs, all three baselines.
  hydra::gen::SyntheticConfig synth;
  synth.num_cores = 2;
  hydra::util::Xoshiro256 rng(23);
  core::Instance instance;
  core::DesignPoint point;
  for (bool found = false; !found;) {
    const auto drawn = hydra::gen::generate_filtered_instance(synth, 1.0, rng);
    if (!drawn.has_value()) continue;
    instance = drawn->instance;
    point = core::evaluate_scheme(core::ContegoAllocator(), instance);
    found = point.validated;
  }
  ASSERT_GE(instance.rt_tasks.size(), 2u);
  ASSERT_GE(instance.security_tasks.size(), 1u);
  hexp::AdaptiveMetricsConfig config;
  config.detection.horizon = 200u * 1000u * kMs;
  config.detection.trials = 120;
  config.include_global = true;

  const HookOutcome base = evaluate_hooks(config, instance, point);
  ASSERT_TRUE(base.error.empty()) << base.error;
  ASSERT_EQ(base.values.size(), 9u);
  // Every hook of the family after the first is a hit.
  std::size_t before = hexp::adaptive_bundles_computed();
  EXPECT_EQ(evaluate_hooks(config, instance, point), base);
  EXPECT_EQ(hexp::adaptive_bundles_computed(), before);
  EXPECT_EQ(evaluate_hooks_cold(config, instance, point), base);

  using Mutation =
      std::function<void(core::Instance&, core::DesignPoint&, hexp::AdaptiveMetricsConfig&)>;
  const std::vector<std::pair<std::string, Mutation>> mutations = {
      {"rt C", [](auto& in, auto&, auto&) { in.rt_tasks[0].wcet = ulp_up(in.rt_tasks[0].wcet); }},
      {"rt T",
       [](auto& in, auto&, auto&) { in.rt_tasks[1].period = ulp_up(in.rt_tasks[1].period); }},
      {"rt D",
       [](auto& in, auto&, auto&) {
         in.rt_tasks[0].deadline = ulp_down(in.rt_tasks[0].deadline);
       }},
      {"rt name", [](auto& in, auto&, auto&) { in.rt_tasks[0].name += "'"; }},
      {"sec C",
       [](auto& in, auto&, auto&) {
         in.security_tasks[0].wcet = ulp_down(in.security_tasks[0].wcet);
       }},
      {"sec Tdes",
       [](auto& in, auto&, auto&) {
         in.security_tasks[0].period_des = ulp_down(in.security_tasks[0].period_des);
       }},
      {"sec Tmax",
       [](auto& in, auto&, auto&) {
         in.security_tasks[0].period_max = ulp_up(in.security_tasks[0].period_max);
       }},
      {"sec omega",
       [](auto& in, auto&, auto&) {
         in.security_tasks[0].weight = ulp_up(in.security_tasks[0].weight);
       }},
      {"sec name", [](auto& in, auto&, auto&) { in.security_tasks[0].name += "'"; }},
      {"cores", [](auto& in, auto&, auto&) { ++in.num_cores; }},
      {"placement core",
       [](auto&, auto& pt, auto&) {
         auto& place = pt.allocation.placements[0];
         place.core = 1 - place.core;
       }},
      {"placement period",
       [](auto& in, auto& pt, auto&) {
         auto& place = pt.allocation.placements[0];
         place.period = place.period < in.security_tasks[0].period_max ? ulp_up(place.period)
                                                                       : ulp_down(place.period);
       }},
      {"rt partition",
       [](auto&, auto& pt, auto&) {
         auto& core_of = pt.allocation.rt_partition.core_of;
         core_of[0] = 1 - core_of[0];
       }},
      {"scheme", [](auto&, auto& pt, auto&) { pt.scheme += "'"; }},
      {"horizon", [](auto&, auto&, auto& c) { ++c.detection.horizon; }},
      {"trials", [](auto&, auto&, auto& c) { ++c.detection.trials; }},
      {"detection seed", [](auto&, auto&, auto& c) { ++c.detection.seed; }},
      {"scope", [](auto&, auto&, auto& c) { c.detection.scope = sim::AttackScope::kSingleTask; }},
      {"policy", [](auto&, auto&, auto& c) { c.controller.policy = "boost"; }},
      {"inert policy",
       [](auto&, auto&, auto& c) { c.controller.policy = sim::kInertControllerPolicy; }},
      {"slack window", [](auto&, auto&, auto& c) { ++c.controller.slack_window; }},
      {"tighten",
       [](auto&, auto&, auto& c) {
         c.controller.tighten_threshold = ulp_down(c.controller.tighten_threshold);
       }},
      {"relax",
       [](auto&, auto&, auto& c) {
         c.controller.relax_threshold = ulp_up(c.controller.relax_threshold);
       }},
      {"dwell", [](auto&, auto&, auto& c) { ++c.controller.min_dwell; }},
      {"switch budget", [](auto&, auto&, auto& c) { --c.controller.switch_budget; }},
      {"levels", [](auto&, auto&, auto& c) { ++c.controller.num_levels; }},
      {"boost window", [](auto&, auto&, auto& c) { ++c.controller.boost_window; }},
      {"static", [](auto&, auto&, auto& c) { c.include_static = false; }},
      {"min-mode", [](auto&, auto&, auto& c) { c.include_min_mode = false; }},
      {"global", [](auto&, auto&, auto& c) { c.include_global = false; }},
  };
  // The fields the minimum-mode run does not read: the rest feed its memo
  // too, which must then miss as well.
  const std::set<std::string> outside_min_mode = {
      "scheme", "policy", "inert policy", "slack window", "tighten", "relax", "dwell",
      "switch budget", "levels", "boost window", "static", "min-mode", "global"};
  for (const auto& [what, mutate] : mutations) {
    core::Instance moved_instance = instance;
    core::DesignPoint moved_point = point;
    hexp::AdaptiveMetricsConfig moved_config = config;
    mutate(moved_instance, moved_point, moved_config);
    // The memos hold the base row; the moved input must miss them and agree
    // with a thread that never saw the base row.
    ASSERT_EQ(evaluate_hooks(config, instance, point), base) << what;
    before = hexp::adaptive_bundles_computed();
    const std::size_t min_mode_before = hexp::min_mode_runs_computed();
    const HookOutcome warm = evaluate_hooks(moved_config, moved_instance, moved_point);
    EXPECT_EQ(hexp::adaptive_bundles_computed(), before + 1) << what << ": the memo hit";
    EXPECT_EQ(hexp::min_mode_runs_computed(),
              min_mode_before + (outside_min_mode.count(what) == 0 ? 1 : 0))
        << what << ": the minimum-mode memo";
    EXPECT_EQ(warm, evaluate_hooks_cold(moved_config, moved_instance, moved_point)) << what;
  }

  // "" resolves to the default policy, and the name suffix only labels the
  // hooks, so neither costs a second bundle.
  ASSERT_TRUE(config.controller.policy.empty());
  ASSERT_EQ(evaluate_hooks(config, instance, point), base);
  hexp::AdaptiveMetricsConfig spelled = config;
  spelled.controller.policy = sim::kDefaultControllerPolicy;
  spelled.name_suffix = "/hysteresis";
  before = hexp::adaptive_bundles_computed();
  EXPECT_EQ(evaluate_hooks(spelled, instance, point), base);
  EXPECT_EQ(hexp::adaptive_bundles_computed(), before);
}

// ---------------------------------------------------------------------------
// Adaptive metrics: the inert family reads the row's minimum-mode run
// ---------------------------------------------------------------------------

namespace {

using hydra::util::same_bits;

/// A clean bit-for-bit +0.0.
void expect_exact_zero(double v, const std::string& what) {
  EXPECT_EQ(v, 0.0) << what;
  EXPECT_FALSE(std::signbit(v)) << what;
}

/// The never-switch family with every baseline, evaluated on a fresh thread
/// (one bundle, one minimum-mode run), against the engine's own never-switch
/// run, which the family no longer simulates: an error row carries the
/// engine run's failure, a clean row its mean and p95, exact zeros for the
/// controller counters, and the minimum-mode baseline's mean.  Returns true
/// for an error row.
bool expect_inert_family_matches_the_engine(const core::Instance& instance,
                                            const core::DesignPoint& point,
                                            const sim::DetectionConfig& detection,
                                            const std::string& what) {
  hexp::AdaptiveMetricsConfig config;
  config.detection = detection;
  config.controller.policy = sim::kInertControllerPolicy;
  config.controller.num_levels = 3;
  config.include_global = true;
  const HookOutcome inert = evaluate_hooks_cold(config, instance, point);

  sim::AdaptiveDetectionResult engine;
  try {
    engine = sim::measure_detection_times_adaptive(instance, point.allocation, detection,
                                                   config.controller);
  } catch (const std::exception& e) {
    EXPECT_EQ(inert.error, e.what()) << what;
    return true;
  }
  if (engine.detection.deadline_misses != 0) {
    EXPECT_EQ(inert.error, "adaptive: simulation missed deadlines") << what;
    return true;
  }
  if (engine.detection.detection_ms.empty()) {
    EXPECT_EQ(inert.error, "adaptive: no attack was ever detected") << what;
    return true;
  }
  const sim::DetectionResult min_mode = sim::measure_detection_times(
      instance, core::min_mode_allocation(instance, point.allocation), detection);
  EXPECT_EQ(engine.detection.detection_ms, min_mode.detection_ms) << what;
  EXPECT_EQ(engine.detection.undetected, min_mode.undetected) << what;
  EXPECT_EQ(engine.modes.total_switches(), 0u) << what;
  EXPECT_EQ(engine.modes.total_denied_dwell(), 0u) << what;
  EXPECT_EQ(engine.modes.total_denied_budget(), 0u) << what;
  expect_exact_zero(engine.modes.mean_adapted_fraction(engine.switchable_tasks), what);

  EXPECT_TRUE(inert.error.empty()) << what << ": " << inert.error;
  if (inert.values.size() != 9u) {
    ADD_FAILURE() << what << ": " << inert.values.size() << " hook values";
    return false;
  }
  const double mean = hydra::stats::summarize(engine.detection.detection_ms).mean;
  EXPECT_TRUE(same_bits(inert.values[0], mean)) << what;
  EXPECT_TRUE(same_bits(inert.values[1],
                        hydra::stats::percentile(engine.detection.detection_ms, 0.95)))
      << what;
  for (std::size_t i = 2; i < 6; ++i) expect_exact_zero(inert.values[i], what);
  EXPECT_TRUE(same_bits(inert.values[7], mean)) << what << ": the min-mode baseline";
  return false;
}

}  // namespace

TEST(AdaptiveMetrics, InertFamilyIsTheMinimumModeRunOnTheCorpora) {
  std::size_t clean = 0;
  std::size_t errors = 0;
  for (const char* dir : {"/tests/corpus", "/tests/corpus_controller", "/tests/corpus_sim"}) {
    for (const auto& file :
         hydra::testlib::corpus_workloads(std::string(HYDRA_SOURCE_DIR) + dir)) {
      const core::Instance instance = hydra::io::load_instance(file.string());
      if (instance.security_tasks.empty()) continue;
      const core::DesignPoint point = core::evaluate_scheme(core::ContegoAllocator(), instance);
      if (!point.validated) continue;
      // Long enough for plan_attacks: three minimum-mode periods and then some.
      double slowest = 0.0;
      for (const auto& s : instance.security_tasks) slowest = std::max(slowest, s.period_max);
      sim::DetectionConfig detection;
      detection.horizon = hydra::util::to_ticks_ceil(3.0 * slowest) + 2'000 * kMs;
      detection.trials = 120;
      if (expect_inert_family_matches_the_engine(instance, point, detection,
                                                 file.filename().string())) {
        ++errors;
      } else {
        ++clean;
      }
    }
  }
  EXPECT_GE(clean, 8u) << "the corpora no longer reach the adaptive metrics";
  // The tick-rounding instance of tests/corpus_sim misses RT deadlines.
  EXPECT_GE(errors, 1u) << "no error row checked";
}

TEST(AdaptiveMetrics, InertFamilyIsTheMinimumModeRunOnSeededFig5Draws) {
  // fig5's runtime-adaptation rows: contego at M = 2, a 100 s horizon and
  // 120 attacks, in both scopes.
  hydra::gen::SyntheticConfig synth;
  synth.num_cores = 2;
  hydra::util::Xoshiro256 rng(61);
  std::size_t clean = 0;
  for (const double load : {0.5, 0.75, 1.0, 1.2}) {
    for (std::size_t rows = 0; rows < 6;) {
      const auto drawn = hydra::gen::generate_filtered_instance(synth, load, rng);
      if (!drawn.has_value()) continue;
      const core::DesignPoint point =
          core::evaluate_scheme(core::ContegoAllocator(), drawn->instance);
      if (!point.validated) continue;
      sim::DetectionConfig detection;
      detection.horizon = 100'000 * kMs;
      detection.trials = 120;
      detection.scope = rows % 2 == 0 ? sim::AttackScope::kAllTasks
                                      : sim::AttackScope::kSingleTask;
      const std::string what = "U = " + std::to_string(load) + " row " + std::to_string(rows);
      if (!expect_inert_family_matches_the_engine(drawn->instance, point, detection, what)) {
        ++clean;
      }
      ++rows;
    }
  }
  EXPECT_GE(clean, 18u);
}

TEST(AdaptiveMetrics, AFig5RowSimulatesItsMinimumModeScheduleOnce) {
  // perfbench's runtime-adapt families: hysteresis with the three baselines,
  // then boost and never-switch without.  Three bundles, one minimum-mode
  // run, shared by the min-mode baseline and the never-switch family.
  hydra::gen::SyntheticConfig synth;
  synth.num_cores = 2;
  hydra::util::Xoshiro256 rng(7);
  core::Instance instance;
  core::DesignPoint point;
  for (bool found = false; !found;) {
    const auto drawn = hydra::gen::generate_filtered_instance(synth, 0.75, rng);
    if (!drawn.has_value()) continue;
    instance = drawn->instance;
    point = core::evaluate_scheme(core::ContegoAllocator(), instance);
    found = point.validated;
  }
  hexp::AdaptiveMetricsConfig base;
  base.detection.horizon = 100'000 * kMs;
  base.detection.trials = 120;
  base.controller.num_levels = 3;
  std::vector<hexp::RowMetric> hooks;
  for (const char* policy : {"hysteresis", "boost", "never-switch"}) {
    hexp::AdaptiveMetricsConfig family = base;
    family.controller.policy = policy;
    family.name_suffix = std::string("/") + policy;
    family.include_static = family.include_min_mode = family.include_global = hooks.empty();
    for (auto& hook : hexp::adaptive_detection_metrics(family)) hooks.push_back(std::move(hook));
  }
  ASSERT_EQ(hooks.size(), 21u);

  std::map<std::string, double> values;
  std::size_t bundles = 0;
  std::size_t min_mode_runs = 0;
  std::thread worker([&] {
    for (const auto& hook : hooks) values[hook.name] = hook.compute(instance, point);
    bundles = hexp::adaptive_bundles_computed();
    min_mode_runs = hexp::min_mode_runs_computed();
  });
  worker.join();
  EXPECT_EQ(bundles, 3u);
  EXPECT_EQ(min_mode_runs, 1u);
  EXPECT_TRUE(same_bits(values.at("adaptive_mean_detection_ms/never-switch"),
                        values.at("min_mode_mean_detection_ms")));
  for (const char* counter : {"adaptive_switches/never-switch", "adapted_residency/never-switch",
                              "adaptive_denied_dwell/never-switch",
                              "adaptive_denied_budget/never-switch"}) {
    expect_exact_zero(values.at(counter), counter);
  }
}
