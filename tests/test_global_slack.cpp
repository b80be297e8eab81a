// Tests for the global slack scheduler (paper §V extension): RT cores stay
// exclusive, security jobs fill idle cores by priority and may migrate, and
// the paper's intuition — migration improves detection latency — holds on the
// case study.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/hydra.h"
#include "gen/uav.h"
#include "oracles/global_slack.h"
#include "sim/attack.h"
#include "sim/global_slack.h"
#include "sim/slack_profile.h"
#include "stats/summary.h"

namespace oracle = hydra::oracle;
namespace sim = hydra::sim;
namespace core = hydra::core;
using hydra::util::SimTime;

namespace {

sim::GlobalSimTask rt_task(const std::string& name, SimTime wcet, SimTime period,
                           std::size_t core, int priority) {
  sim::SimTask t;
  t.name = name;
  t.wcet = wcet;
  t.period = period;
  t.deadline = period;
  t.core = core;
  t.priority = priority;
  return sim::GlobalSimTask{t, false};
}

sim::GlobalSimTask sec_task(const std::string& name, SimTime wcet, SimTime period,
                            int priority) {
  sim::SimTask t;
  t.name = name;
  t.wcet = wcet;
  t.period = period;
  t.deadline = period;
  t.priority = priority;
  return sim::GlobalSimTask{t, true};
}

}  // namespace

TEST(GlobalSlack, SecurityRunsOnIdleCoreImmediately) {
  // Core 0 is fully busy [0, 50); core 1 idle.  A security job released at 0
  // must start at 0 on core 1 — not wait for core 0's slack.
  const auto rt = rt_task("busy", 50, 100, 0, 0);
  const auto sec = sec_task("mon", 10, 100, 100);
  sim::GlobalSimOptions opts;
  opts.horizon = 100;
  opts.num_cores = 2;
  const auto trace = oracle::simulate_global_slack({rt, sec}, opts);
  EXPECT_EQ(trace.jobs[1][0].start, 0u);
  EXPECT_EQ(trace.jobs[1][0].completion, 10u);
  EXPECT_EQ(trace.migrations, 0u);
}

TEST(GlobalSlack, SecurityWaitsWhenAllCoresBusy) {
  // Both cores busy [0, 30): the security job starts at 30.
  const auto rt0 = rt_task("b0", 30, 100, 0, 0);
  const auto rt1 = rt_task("b1", 30, 100, 1, 0);
  const auto sec = sec_task("mon", 10, 100, 100);
  sim::GlobalSimOptions opts;
  opts.horizon = 100;
  opts.num_cores = 2;
  const auto trace = oracle::simulate_global_slack({rt0, rt1, sec}, opts);
  EXPECT_EQ(trace.jobs[2][0].start, 30u);
  EXPECT_EQ(trace.jobs[2][0].completion, 40u);
}

TEST(GlobalSlack, JobMigratesAcrossSlackHoles) {
  // Core 1's slack is [0, 20); core 0's is [10, 100).  A 30-tick security job
  // released at 0 runs on core 1 first, then (core 1 becomes busy at 20,
  // core 0 frees at 10) continues on core 0 — one migration, completing well
  // before a static placement on either single core could.
  const auto rt0 = rt_task("rt0", 10, 200, 0, 0);  // busy [0,10) on core 0
  sim::SimTask rt1_task_;
  rt1_task_.name = "rt1";
  rt1_task_.wcet = 80;
  rt1_task_.period = 200;
  rt1_task_.deadline = 200;
  rt1_task_.core = 1;
  rt1_task_.priority = 1;
  rt1_task_.release_offset = 20;  // busy [20,100) on core 1
  const auto sec = sec_task("mon", 30, 200, 100);
  sim::GlobalSimOptions opts;
  opts.horizon = 200;
  opts.num_cores = 2;
  const auto trace =
      oracle::simulate_global_slack({rt0, sim::GlobalSimTask{rt1_task_, false}, sec}, opts);
  // The monitor runs [0,?) somewhere: core 1 free at 0 (rt1 not yet released),
  // core 0 busy till 10.  Priority assignment gives it an idle core at 0.
  EXPECT_EQ(trace.jobs[2][0].start, 0u);
  EXPECT_TRUE(trace.jobs[2][0].completed);
  EXPECT_EQ(trace.jobs[2][0].completion, 30u);
  EXPECT_EQ(trace.migrations, 1u);
  EXPECT_EQ(trace.deadline_misses(), 0u);
}

TEST(GlobalSlack, HigherPrioritySecurityGetsTheSlackFirst) {
  // One idle core, two security jobs released together: the smaller-priority
  // value runs first.
  const auto hi = sec_task("hi", 20, 200, 100);
  const auto lo = sec_task("lo", 20, 200, 101);
  sim::GlobalSimOptions opts;
  opts.horizon = 200;
  opts.num_cores = 1;
  const auto trace = oracle::simulate_global_slack({hi, lo}, opts);
  EXPECT_EQ(trace.jobs[0][0].completion, 20u);
  EXPECT_EQ(trace.jobs[1][0].start, 20u);
  EXPECT_EQ(trace.jobs[1][0].completion, 40u);
}

TEST(GlobalSlack, TwoIdleCoresRunSecurityInParallel) {
  const auto a = sec_task("a", 50, 200, 100);
  const auto b = sec_task("b", 50, 200, 101);
  sim::GlobalSimOptions opts;
  opts.horizon = 200;
  opts.num_cores = 2;
  const auto trace = oracle::simulate_global_slack({a, b}, opts);
  EXPECT_EQ(trace.jobs[0][0].completion, 50u);
  EXPECT_EQ(trace.jobs[1][0].completion, 50u);  // parallel, not serialized
}

TEST(GlobalSlack, BackloggedJobsOfOneTaskRunInReleaseOrder) {
  // Both cores are RT-busy [0, 50) while `a` releases at 0, 20 and 40.  The
  // RT completions at 50 swap-remove the backlog out of release order inside
  // the engine's job list; with ties broken by release the jobs still run,
  // and complete, oldest first.
  const auto rt0 = rt_task("rt0", 50, 1000, 0, 0);
  const auto rt1 = rt_task("rt1", 50, 1000, 1, 0);
  const auto x = sec_task("x", 5, 100, 100);
  const auto a = sec_task("a", 10, 20, 101);
  sim::GlobalSimOptions opts;
  opts.horizon = 50;
  opts.num_cores = 2;
  const std::vector<sim::GlobalSimTask> tasks = {rt0, rt1, x, a};
  const auto trace = oracle::simulate_global_slack(tasks, opts);
  EXPECT_EQ(trace.jobs[2][0].completion, 55u);
  ASSERT_EQ(trace.jobs[3].size(), 3u);
  EXPECT_EQ(trace.jobs[3][0].completion, 60u);
  EXPECT_EQ(trace.jobs[3][1].completion, 65u);
  EXPECT_EQ(trace.jobs[3][2].completion, 70u);

  // The band engine keeps the same rule.
  sim::RtSlackProfileCache cache;
  const auto band = sim::simulate_global_band(tasks, opts, cache);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(band.jobs[3][j].completion, trace.jobs[3][j].completion);
  }
}

TEST(GlobalSlack, RtTasksNeverMigrateAndKeepTheirCore) {
  const auto rt0 = rt_task("rt0", 40, 100, 0, 0);
  const auto rt1 = rt_task("rt1", 40, 100, 1, 0);
  const auto sec = sec_task("mon", 30, 300, 100);
  sim::GlobalSimOptions opts;
  opts.horizon = 600;
  opts.num_cores = 2;
  const auto trace = oracle::simulate_global_slack({rt0, rt1, sec}, opts);
  EXPECT_EQ(trace.deadline_misses(), 0u);
  // RT busy time must land on the right cores: each core carries >= its own
  // RT demand (6 jobs x 40).
  EXPECT_GE(trace.core_busy[0], 240u);
  EXPECT_GE(trace.core_busy[1], 240u);
}

TEST(GlobalSlack, ValidatesInputs) {
  sim::GlobalSimOptions opts;
  opts.horizon = 100;
  opts.num_cores = 1;
  sim::RtSlackProfileCache cache;
  const auto dup1 = sec_task("a", 10, 100, 100);
  const auto dup2 = sec_task("b", 10, 100, 100);
  EXPECT_THROW(sim::simulate_global_band({dup1, dup2}, opts, cache), std::invalid_argument);

  auto misplaced = rt_task("r", 10, 100, 7, 0);
  EXPECT_THROW(sim::simulate_global_band({misplaced}, opts, cache), std::invalid_argument);

  // An execution fraction the engine cannot draw from, named in the error.
  for (const double fraction : {std::nan(""), -3.0, 1.5}) {
    auto varying = sec_task("varying", 10, 100, 100);
    varying.task.exec_fraction_min = fraction;
    try {
      sim::simulate_global_band({varying}, opts, cache);
      ADD_FAILURE() << "exec_fraction_min " << fraction << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("varying"), std::string::npos) << error.what();
    }
  }
}

TEST(GlobalSlack, DetectionNeverWorseThanStaticOnCaseStudy) {
  // The §V intuition: with the same periods, letting monitors use any core's
  // slack cannot hurt (and usually helps) detection latency.
  for (const std::size_t m : {2u, 4u}) {
    const auto inst = hydra::gen::uav_case_study(m);
    const auto allocation = core::HydraAllocator().allocate(inst);
    ASSERT_TRUE(allocation.feasible);
    sim::DetectionConfig config;
    config.horizon = 200u * 1000u * hydra::util::kTicksPerMilli;
    config.trials = 150;
    config.seed = 5;
    const auto fixed = sim::measure_detection_times(inst, allocation, config);
    const auto global = sim::measure_detection_times_global(inst, allocation, config);
    ASSERT_GT(fixed.detection_ms.size(), 0u);
    ASSERT_GT(global.detection_ms.size(), 0u);
    EXPECT_EQ(global.deadline_misses, 0u);
    EXPECT_LE(hydra::stats::summarize(global.detection_ms).mean,
              hydra::stats::summarize(fixed.detection_ms).mean * 1.05)
        << "M = " << m;
  }
}
