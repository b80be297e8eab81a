// Adversarial controller-stress suite over tests/corpus_controller/: bursty
// mode-thrash pressure, N-level ladder invariants, attack-triggered boosting,
// and multi-policy sweep determinism.
//
// Pinned invariants (ISSUE 10):
//   * mode-table ladders are strictly decreasing with exact anchor endpoints,
//     and the simulator's tick ladders inherit that;
//   * hysteresis/nlevel moves one rung at a time;
//   * thrash attempts are rate-limited by the dwell and the denials are
//     COUNTED (ModeStats::denied_dwell/denied_budget), never silent;
//   * never-switch is job-for-job identical to the static engine on the
//     minimum-mode task list, attacks injected or not;
//   * attack injection never perturbs a detection-ignoring policy's trace;
//   * boost never exceeds the analysis-feasible fastest level, and on the
//     loaded boost_pressure workload it measurably reduces detection latency
//     vs hysteresis (the Contego attack-response story, executed);
//   * a multi-policy sweep is byte-identical across --jobs and across a
//     2-shard merge.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/contego.h"
#include "core/mode_table.h"
#include "exp/merge.h"
#include "exp/metrics.h"
#include "exp/sinks.h"
#include "exp/sweep.h"
#include "io/taskset_io.h"
#include "sim/attack.h"
#include "sim/engine.h"
#include "sim/mode_switch.h"
#include "stats/summary.h"

namespace core = hydra::core;
namespace sim = hydra::sim;
namespace hexp = hydra::exp;
using hydra::util::SimTime;

namespace {

constexpr SimTime kMs = hydra::util::kTicksPerMilli;

const std::string kStressCorpus =
    std::string(HYDRA_SOURCE_DIR) + "/tests/corpus_controller";

struct LoadedWorkload {
  core::Instance instance;
  core::Allocation allocation;
};

LoadedWorkload load_workload(const std::string& name) {
  LoadedWorkload w;
  w.instance = hydra::io::load_instance(kStressCorpus + "/" + name);
  w.allocation = core::ContegoAllocator().allocate(w.instance);
  EXPECT_TRUE(w.allocation.feasible) << name;
  return w;
}

const std::vector<std::string> kWorkloads = {
    "bursty_thrash_2core.txt", "boost_pressure_2core.txt",
    "ladder_midband_2core.txt"};

}  // namespace

// ---------------------------------------------------------------------------
// N-level ladder invariants
// ---------------------------------------------------------------------------

TEST(NLevelLadder, TableLevelsAreMonotoneWithExactAnchors) {
  for (const auto& name : kWorkloads) {
    const auto w = load_workload(name);
    for (const std::size_t levels : {2u, 3u, 5u, 8u}) {
      const auto table = core::build_mode_table(w.instance, w.allocation, levels);
      for (std::size_t s = 0; s < table.modes.size(); ++s) {
        const auto& mode = table.modes[s];
        ASSERT_FALSE(mode.levels.empty()) << name;
        // Exact anchors: the analysis certified Tmax and the committed
        // period; interpolation noise on them would be a different table.
        EXPECT_EQ(mode.levels.front(), mode.min_period) << name;
        if (table.has_headroom(s)) {
          EXPECT_EQ(mode.num_levels(), levels) << name;
          EXPECT_EQ(mode.levels.back(), mode.adapted_period) << name;
          for (std::size_t k = 1; k < mode.levels.size(); ++k) {
            EXPECT_LT(mode.levels[k], mode.levels[k - 1])
                << name << " monitor " << s << " level " << k;
          }
        } else {
          EXPECT_EQ(mode.num_levels(), 1u) << name;
        }
      }
    }
  }
}

TEST(NLevelLadder, SimTaskLaddersInheritMonotonicity) {
  for (const auto& name : kWorkloads) {
    const auto w = load_workload(name);
    const auto table = core::build_mode_table(w.instance, w.allocation, 6);
    const auto tasks = sim::build_mode_tasks(w.instance, w.allocation, table);
    for (const auto& mt : tasks) {
      if (!mt.switchable()) continue;
      EXPECT_EQ(mt.level_period(0), mt.task.period);
      EXPECT_EQ(mt.level_period(mt.num_levels() - 1), mt.adapted_period);
      for (std::size_t k = 1; k < mt.num_levels(); ++k) {
        EXPECT_LT(mt.level_period(k), mt.level_period(k - 1)) << mt.task.name;
      }
    }
  }
}

TEST(NLevelLadder, NlevelPolicyStepsOneRungAtATime) {
  const auto w = load_workload("ladder_midband_2core.txt");
  const auto table = core::build_mode_table(w.instance, w.allocation, 4);
  const auto tasks = sim::build_mode_tasks(w.instance, w.allocation, table);

  sim::ModeSwitchOptions opts;
  opts.horizon = 120u * 1000u * kMs;
  opts.controller.policy = "hysteresis/nlevel";
  opts.controller.num_levels = 4;
  const auto run = sim::simulate_mode_switching(tasks, opts);

  // Abundant slack: the ladder is actually climbed, one rung per event.
  EXPECT_GT(run.stats.total_switches(), 0u);
  bool reached_top = false;
  for (const auto& ev : run.stats.events) {
    const std::size_t step = ev.to_level > ev.from_level
                                 ? ev.to_level - ev.from_level
                                 : ev.from_level - ev.to_level;
    EXPECT_EQ(step, 1u) << "nlevel must move one level at a time";
    EXPECT_LT(ev.to_level, tasks[ev.task].num_levels());
    if (ev.to_level == tasks[ev.task].num_levels() - 1) reached_top = true;
  }
  EXPECT_TRUE(reached_top) << "midband workload should reach the fastest level";
}

// ---------------------------------------------------------------------------
// Thrash pressure: rate limiting with COUNTED denials
// ---------------------------------------------------------------------------

TEST(ControllerStress, BurstyThrashIsRateLimitedAndDenialsAreCounted) {
  const auto w = load_workload("bursty_thrash_2core.txt");
  const auto table = core::build_mode_table(w.instance, w.allocation);
  const auto tasks = sim::build_mode_tasks(w.instance, w.allocation, table);

  sim::ModeSwitchOptions opts;
  opts.horizon = 200u * 1000u * kMs;
  // A window shorter than the 800 ms burst period sees the square wave raw:
  // the observed idle fraction crosses the whole hysteresis band every phase.
  opts.controller.slack_window = 400 * kMs;
  // A dwell longer than the default (the min-mode period) guarantees the
  // thrash pressure actually collides with the rate limit: at level 0 the
  // auto dwell equals the release spacing, so denials there are impossible
  // by construction.
  opts.controller.min_dwell = 4000 * kMs;
  const auto run = sim::simulate_mode_switching(tasks, opts);

  EXPECT_EQ(run.trace.deadline_misses(), 0u);
  EXPECT_GT(run.stats.total_switches(), 0u);
  // The thrash attempts the dwell refused are visible, not silent — the
  // regression this suite pins (decide_mode used to drop them on the floor).
  EXPECT_GT(run.stats.total_denied_dwell(), 0u);

  // Committed switches respect the dwell.
  std::vector<SimTime> last_switch(tasks.size(), 0);
  std::vector<bool> seen(tasks.size(), false);
  for (const auto& ev : run.stats.events) {
    if (seen[ev.task]) {
      EXPECT_GE(ev.at - last_switch[ev.task], opts.controller.min_dwell)
          << "dwell violated for " << tasks[ev.task].task.name;
    }
    last_switch[ev.task] = ev.at;
    seen[ev.task] = true;
  }
}

TEST(ControllerStress, ExhaustedBudgetDenialsAreCounted) {
  const auto w = load_workload("bursty_thrash_2core.txt");
  const auto table = core::build_mode_table(w.instance, w.allocation);
  const auto tasks = sim::build_mode_tasks(w.instance, w.allocation, table);

  sim::ModeSwitchOptions opts;
  opts.horizon = 200u * 1000u * kMs;
  opts.controller.slack_window = 400 * kMs;
  opts.controller.switch_budget = 1;
  const auto run = sim::simulate_mode_switching(tasks, opts);

  // Each switchable monitor commits its single switch, then every further
  // attempt lands in denied_budget.
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    if (!tasks[ti].switchable()) continue;
    EXPECT_LE(run.stats.switches[ti], 1u);
  }
  EXPECT_GT(run.stats.total_denied_budget(), 0u);
}

// ---------------------------------------------------------------------------
// never-switch ≡ static minimum mode, with and without attack injection
// ---------------------------------------------------------------------------

// sim::simulate runs the same per-core loop without a controller, so this
// compares the loop's controller path with its controller-free path.
TEST(ControllerStress, NeverSwitchMatchesStaticEngineJobForJobUnderAttack) {
  const auto w = load_workload("bursty_thrash_2core.txt");
  const auto table = core::build_mode_table(w.instance, w.allocation, 4);
  const auto tasks = sim::build_mode_tasks(w.instance, w.allocation, table);

  sim::ModeSwitchOptions mopts;
  mopts.horizon = 120u * 1000u * kMs;
  mopts.controller.policy = "never-switch";
  mopts.controller.num_levels = 4;
  for (SimTime at = 5000 * kMs; at < mopts.horizon; at += 9000 * kMs) {
    mopts.attack_times.push_back(at);
  }
  const auto adaptive = sim::simulate_mode_switching(tasks, mopts);
  EXPECT_EQ(adaptive.stats.total_switches(), 0u);
  // Detections are delivered (and counted) — the policy just ignores them.
  EXPECT_GT(adaptive.stats.total_detections(), 0u);

  std::vector<sim::SimTask> min_mode;
  for (const auto& mt : tasks) min_mode.push_back(mt.task);
  sim::SimOptions sopts;
  sopts.horizon = mopts.horizon;
  const auto static_run = sim::simulate(min_mode, sopts);

  ASSERT_EQ(adaptive.trace.jobs.size(), static_run.jobs.size());
  for (std::size_t t = 0; t < static_run.jobs.size(); ++t) {
    ASSERT_EQ(adaptive.trace.jobs[t].size(), static_run.jobs[t].size()) << t;
    for (std::size_t k = 0; k < static_run.jobs[t].size(); ++k) {
      EXPECT_EQ(adaptive.trace.jobs[t][k].release, static_run.jobs[t][k].release);
      EXPECT_EQ(adaptive.trace.jobs[t][k].start, static_run.jobs[t][k].start);
      EXPECT_EQ(adaptive.trace.jobs[t][k].completion,
                static_run.jobs[t][k].completion);
    }
  }
  EXPECT_EQ(adaptive.trace.core_busy, static_run.core_busy);
}

TEST(ControllerStress, AttackInjectionNeverPerturbsDetectionIgnoringPolicies) {
  const auto w = load_workload("ladder_midband_2core.txt");
  const auto table = core::build_mode_table(w.instance, w.allocation);
  const auto tasks = sim::build_mode_tasks(w.instance, w.allocation, table);

  sim::ModeSwitchOptions plain;
  plain.horizon = 120u * 1000u * kMs;
  auto injected = plain;
  for (SimTime at = 3000 * kMs; at < plain.horizon; at += 7000 * kMs) {
    injected.attack_times.push_back(at);
  }
  const auto a = sim::simulate_mode_switching(tasks, plain);
  const auto b = sim::simulate_mode_switching(tasks, injected);

  EXPECT_GT(b.stats.total_detections(), 0u);
  EXPECT_EQ(a.stats.switches, b.stats.switches);
  EXPECT_EQ(a.stats.min_residency, b.stats.min_residency);
  EXPECT_EQ(a.stats.adapted_residency, b.stats.adapted_residency);
  EXPECT_EQ(a.trace.core_busy, b.trace.core_busy);
  ASSERT_EQ(a.stats.events.size(), b.stats.events.size());
  for (std::size_t i = 0; i < a.stats.events.size(); ++i) {
    EXPECT_EQ(a.stats.events[i].at, b.stats.events[i].at);
    EXPECT_EQ(a.stats.events[i].to_level, b.stats.events[i].to_level);
  }
}

// ---------------------------------------------------------------------------
// Attack-triggered boosting
// ---------------------------------------------------------------------------

TEST(BoostPolicy, BoostsToTopOnDetectionAndNeverExceedsIt) {
  const auto w = load_workload("boost_pressure_2core.txt");
  const auto table = core::build_mode_table(w.instance, w.allocation, 3);
  const auto tasks = sim::build_mode_tasks(w.instance, w.allocation, table);

  sim::ModeSwitchOptions opts;
  opts.horizon = 150u * 1000u * kMs;
  opts.controller.policy = "boost";
  opts.controller.num_levels = 3;
  for (SimTime at = 10000 * kMs; at < opts.horizon; at += 20000 * kMs) {
    opts.attack_times.push_back(at);
  }
  const auto run = sim::simulate_mode_switching(tasks, opts);

  EXPECT_EQ(run.trace.deadline_misses(), 0u);
  EXPECT_GT(run.stats.total_detections(), 0u);
  EXPECT_GT(run.stats.total_switches(), 0u);
  bool boosted_to_top = false;
  for (const auto& ev : run.stats.events) {
    // The engine HYDRA_REQUIREs desired <= top on every decision; the event
    // log must agree.
    EXPECT_LT(ev.to_level, tasks[ev.task].num_levels()) << tasks[ev.task].task.name;
    if (ev.to_level == tasks[ev.task].num_levels() - 1) boosted_to_top = true;
  }
  // The cores are too loaded for slack-driven tightening (that is what makes
  // this workload adversarial), so any top-level residency is attack-driven.
  EXPECT_TRUE(boosted_to_top);
}

TEST(BoostPolicy, BoostMeasurablyBeatsHysteresisOnLoadedCores) {
  // THE acceptance pin: on boost_pressure the idle fraction never reaches the
  // tighten threshold, so hysteresis detects at the sluggish Tmax rate while
  // boost reacts to each detection event and catches subsequent attacks at
  // the committed fast rate.
  const auto w = load_workload("boost_pressure_2core.txt");
  sim::DetectionConfig det;
  det.horizon = 150u * 1000u * kMs;
  det.trials = 40;
  det.seed = 17;

  sim::ModeControllerConfig hysteresis;
  hysteresis.policy = "hysteresis";
  const auto base =
      sim::measure_detection_times_adaptive(w.instance, w.allocation, det, hysteresis);

  sim::ModeControllerConfig boost;
  boost.policy = "boost";
  const auto boosted =
      sim::measure_detection_times_adaptive(w.instance, w.allocation, det, boost);

  ASSERT_EQ(base.detection.detection_ms.size(), det.trials);
  ASSERT_EQ(boosted.detection.detection_ms.size(), det.trials);
  // Slack never justifies tightening here...
  EXPECT_EQ(base.modes.total_switches(), 0u);
  // ...but detections do.
  EXPECT_GT(boosted.modes.total_detections(), 0u);
  EXPECT_GT(boosted.modes.total_switches(), 0u);

  const double base_mean = hydra::stats::summarize(base.detection.detection_ms).mean;
  const double boost_mean =
      hydra::stats::summarize(boosted.detection.detection_ms).mean;
  EXPECT_LT(boost_mean, 0.8 * base_mean)
      << "boost should measurably reduce detection latency (hysteresis "
      << base_mean << " ms vs boost " << boost_mean << " ms)";
}

// ---------------------------------------------------------------------------
// Multi-policy sweep determinism: --jobs and shard/merge byte-identity
// ---------------------------------------------------------------------------

namespace {

std::vector<hexp::RowMetric> multi_policy_metrics() {
  std::vector<hexp::RowMetric> metrics;
  const std::vector<std::string> policies = {"hysteresis", "boost", "never-switch"};
  for (std::size_t i = 0; i < policies.size(); ++i) {
    hexp::AdaptiveMetricsConfig family;
    family.detection.horizon = 60u * 1000u * kMs;
    family.detection.trials = 10;
    family.detection.seed = 5;
    family.controller.policy = policies[i];
    family.controller.num_levels = 3;
    family.name_suffix = "/" + policies[i];
    family.include_static = i == 0;
    family.include_min_mode = i == 0;
    family.include_global = false;
    auto fam = hexp::adaptive_detection_metrics(family);
    metrics.insert(metrics.end(), std::make_move_iterator(fam.begin()),
                   std::make_move_iterator(fam.end()));
  }
  return metrics;
}

hexp::SweepSpec multi_policy_spec() {
  hexp::SweepSpec spec;
  spec.schemes = {"contego"};
  spec.add_corpus_point(kStressCorpus, "controller-stress");
  spec.metrics = multi_policy_metrics();
  return spec;
}

std::string run_rows(hexp::SweepSpec spec) {
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  hexp::Sweep(std::move(spec)).run({&sink});
  return os.str();
}

}  // namespace

TEST(MultiPolicySweep, RowStreamIsIndependentOfJobCount) {
  auto serial = multi_policy_spec();
  serial.jobs = 1;
  auto parallel = multi_policy_spec();
  parallel.jobs = 4;
  const std::string serial_rows = run_rows(std::move(serial));
  EXPECT_FALSE(serial_rows.empty());
  EXPECT_EQ(serial_rows, run_rows(std::move(parallel)));
  // Every policy family actually landed in the rows.
  EXPECT_NE(serial_rows.find("adaptive_mean_detection_ms/hysteresis"),
            std::string::npos);
  EXPECT_NE(serial_rows.find("adaptive_mean_detection_ms/boost"), std::string::npos);
  EXPECT_NE(serial_rows.find("adaptive_denied_dwell/never-switch"),
            std::string::npos);
  // The policy-free baselines appear once, unsuffixed.
  EXPECT_NE(serial_rows.find("\"min_mode_mean_detection_ms\""), std::string::npos);
  EXPECT_EQ(serial_rows.find("min_mode_mean_detection_ms/"), std::string::npos);
}

TEST(MultiPolicySweep, TwoShardMergeMatchesSingleProcessRun) {
  const std::string unsharded = run_rows(multi_policy_spec());

  std::vector<std::string> paths;
  for (std::size_t s = 0; s < 2; ++s) {
    auto spec = multi_policy_spec();
    spec.shard_index = s;
    spec.shard_count = 2;
    spec.jobs = 1 + s;
    const hexp::Sweep sweep(std::move(spec));
    const auto path = ::testing::TempDir() + "hydra_ctl_shard_" +
                      std::to_string(s) + "of2.jsonl";
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << hexp::format_shard_header(sweep.shard_header()) << "\n";
    hexp::JsonlSink sink(out);
    sweep.run({&sink});
    paths.push_back(path);
  }

  const auto merged = hexp::merge_checkpoints(paths);
  EXPECT_TRUE(merged.complete) << merged.incomplete_reason;
  std::ostringstream merged_rows;
  hexp::write_merged(merged, merged_rows);
  EXPECT_EQ(merged_rows.str(),
            hexp::format_shard_header(hexp::Sweep(multi_policy_spec()).shard_header()) +
                "\n" + unsharded);
  for (const auto& path : paths) std::remove(path.c_str());
}
