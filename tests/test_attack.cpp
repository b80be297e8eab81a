// Tests for attack injection and detection-time measurement (the Fig. 1
// machinery): sim-task construction, detection bounds, scheme comparison,
// and the one-pass scoring of a plan against the per-attack lookup oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/hydra.h"
#include "core/single_core.h"
#include "gen/uav.h"
#include "oracles/detection.h"
#include "sim/attack.h"
#include "sim/engine.h"
#include "stats/summary.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace sim = hydra::sim;
namespace rt = hydra::rt;

namespace {

sim::DetectionConfig quick_config() {
  sim::DetectionConfig c;
  c.horizon = 200u * 1000u * hydra::util::kTicksPerMilli;  // 200 s
  c.trials = 100;
  c.seed = 9;
  return c;
}

}  // namespace

TEST(BuildSimTasks, ShapesAndPriorities) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  const auto tasks = sim::build_sim_tasks(inst, allocation);
  ASSERT_EQ(tasks.size(), inst.rt_tasks.size() + inst.security_tasks.size());

  // Every security task's priority is below (greater than) every RT task's.
  int max_rt = -1, min_sec = 1 << 20;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i < inst.rt_tasks.size()) {
      max_rt = std::max(max_rt, tasks[i].priority);
    } else {
      min_sec = std::min(min_sec, tasks[i].priority);
    }
  }
  EXPECT_LT(max_rt, min_sec);

  // Security periods match the allocation (rounded to ticks).
  for (std::size_t s = 0; s < inst.security_tasks.size(); ++s) {
    const auto& st = tasks[inst.rt_tasks.size() + s];
    EXPECT_EQ(st.core, allocation.placements[s].core);
    EXPECT_NEAR(hydra::util::to_millis(st.period), allocation.placements[s].period, 0.001);
    EXPECT_EQ(st.deadline, st.period);  // implicit deadline
  }
}

TEST(BuildSimTasks, InfeasibleAllocationRejected) {
  const auto inst = hydra::gen::uav_case_study(2);
  core::Allocation bogus;
  bogus.feasible = false;
  EXPECT_THROW(sim::build_sim_tasks(inst, bogus), std::invalid_argument);
}

TEST(Detection, FeasibleAllocationHasNoDeadlineMisses) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  const auto result = sim::measure_detection_times(inst, allocation, quick_config());
  EXPECT_EQ(result.deadline_misses, 0u);
}

TEST(Detection, SamplesArePositiveAndBounded) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  const auto result = sim::measure_detection_times(inst, allocation, quick_config());
  ASSERT_GT(result.detection_ms.size(), 0u);

  // Worst-case detection is bounded by 2·max period (one full period missed
  // plus the next scan's response, which is at most its period).
  double max_period = 0.0;
  for (const auto& p : allocation.placements) max_period = std::max(max_period, p.period);
  for (const double d : result.detection_ms) {
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, 2.0 * max_period + 1.0);
  }
}

TEST(Detection, SingleTaskScopeFasterThanAllTasks) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  auto config = quick_config();
  config.scope = sim::AttackScope::kSingleTask;
  const auto single = sim::measure_detection_times(inst, allocation, config);
  config.scope = sim::AttackScope::kAllTasks;
  const auto all = sim::measure_detection_times(inst, allocation, config);
  ASSERT_GT(single.detection_ms.size(), 0u);
  ASSERT_GT(all.detection_ms.size(), 0u);
  // Worst-case (all) detection stochastically dominates single-surface.
  EXPECT_LE(hydra::stats::summarize(single.detection_ms).mean,
            hydra::stats::summarize(all.detection_ms).mean);
}

TEST(Detection, DeterministicGivenSeed) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  const auto r1 = sim::measure_detection_times(inst, allocation, quick_config());
  const auto r2 = sim::measure_detection_times(inst, allocation, quick_config());
  ASSERT_EQ(r1.detection_ms.size(), r2.detection_ms.size());
  for (std::size_t i = 0; i < r1.detection_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.detection_ms[i], r2.detection_ms[i]);
  }
}

TEST(Detection, HydraBeatsSingleCoreOnTheCaseStudy) {
  // The headline Fig. 1 claim at small scale: mean worst-case detection time
  // under HYDRA is below SingleCore's for every tested core count.
  for (const std::size_t m : {2u, 4u}) {
    const auto inst = hydra::gen::uav_case_study(m);
    const auto hydra_alloc = core::HydraAllocator().allocate(inst);
    const auto single_alloc = core::SingleCoreAllocator().allocate(inst);
    ASSERT_TRUE(hydra_alloc.feasible);
    ASSERT_TRUE(single_alloc.feasible);
    const auto hydra_res = sim::measure_detection_times(inst, hydra_alloc, quick_config());
    const auto single_res = sim::measure_detection_times(inst, single_alloc, quick_config());
    ASSERT_GT(hydra_res.detection_ms.size(), 0u);
    ASSERT_GT(single_res.detection_ms.size(), 0u);
    EXPECT_LT(hydra::stats::summarize(hydra_res.detection_ms).mean,
              hydra::stats::summarize(single_res.detection_ms).mean)
        << "M = " << m;
  }
}

TEST(Detection, RejectsDegenerateConfigs) {
  const auto inst = hydra::gen::uav_case_study(2);
  const auto allocation = core::HydraAllocator().allocate(inst);
  ASSERT_TRUE(allocation.feasible);
  auto config = quick_config();
  config.trials = 0;
  EXPECT_THROW(sim::measure_detection_times(inst, allocation, config), std::invalid_argument);
  config = quick_config();
  config.horizon = 1000;  // 1 ms — far below the security periods
  EXPECT_THROW(sim::measure_detection_times(inst, allocation, config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// One forward pass per monitor against the per-(trial, monitor) lookup
// ---------------------------------------------------------------------------

namespace {

using hydra::util::SimTime;

sim::JobRecord job(SimTime release, std::optional<SimTime> completion) {
  sim::JobRecord rec;
  rec.release = release;
  rec.completed = completion.has_value();
  rec.completion = completion.value_or(0);
  rec.deadline_missed = !completion.has_value();
  return rec;
}

sim::DetectionConfig scoped(sim::AttackScope scope) {
  sim::DetectionConfig config;
  config.scope = scope;
  return config;
}

void expect_same_detection(const sim::DetectionResult& got,
                           const sim::DetectionResult& want) {
  EXPECT_EQ(got.detection_ms, want.detection_ms);
  EXPECT_EQ(got.undetected, want.undetected);
  EXPECT_EQ(got.deadline_misses, want.deadline_misses);
}

/// Both scopes of `plan` on `trace`: the one-pass scoring must equal the
/// lookup oracle's, value for value and in draw order.
void expect_pass_matches_lookup(const sim::Trace& trace, std::size_t nr, std::size_t ns,
                                const sim::AttackPlan& plan) {
  for (const auto scope : {sim::AttackScope::kAllTasks, sim::AttackScope::kSingleTask}) {
    SCOPED_TRACE(scope == sim::AttackScope::kAllTasks ? "all tasks" : "single task");
    const sim::DetectionConfig config = scoped(scope);
    expect_same_detection(sim::detect_planned_attacks(trace, nr, ns, config, plan),
                          hydra::oracle::detect_by_lookup(trace, nr, ns, config, plan));
  }
}

}  // namespace

TEST(DetectionOracle, FirstCompletionReleasedAfterBoundaries) {
  sim::Trace trace;
  trace.jobs = {{job(0, 30), job(100, 130), job(200, 230), job(300, std::nullopt)}};
  // Attack at t = 150: the first job released after is at 200, done at 230.
  EXPECT_EQ(hydra::oracle::first_completion_released_after(trace, 0, 150), 230u);
  // Attack exactly at a release boundary counts that release.
  EXPECT_EQ(hydra::oracle::first_completion_released_after(trace, 0, 200), 230u);
  // Only an unfinished job released after: no detection.
  EXPECT_FALSE(hydra::oracle::first_completion_released_after(trace, 0, 250).has_value());
  EXPECT_THROW(hydra::oracle::first_completion_released_after(trace, 7, 0),
               std::invalid_argument);
}

TEST(DetectPlannedAttacks, ScoresTheBoundaryCasesInDrawOrder) {
  // Monitor 0 releases every 100 ticks; its job at 100 never completes.
  // Monitor 1 releases at 50 and 250 and completes both.
  sim::Trace trace;
  trace.jobs = {{job(0, 30), job(100, std::nullopt), job(200, 260), job(300, 320)},
                {job(50, 90), job(250, 280)}};
  // Drawn out of order, with a duplicate instant, one attack exactly at a
  // release of each monitor, and one after monitor 1's last release.
  const sim::AttackPlan plan({{200, 0}, {0, 1}, {100, 1}, {100, 0}, {50, 1}, {260, 1}});
  EXPECT_EQ(plan.sorted_times(), (std::vector<SimTime>{0, 50, 100, 100, 200, 260}));
  EXPECT_EQ(plan.order(), (std::vector<std::size_t>{1, 4, 2, 3, 0, 5}));
  const auto ms = [](SimTime ticks) { return hydra::util::to_millis(ticks); };

  // All tasks: the later of the two monitors' detecting completions.
  //   200: monitor 0's job released at 200 (260), monitor 1's at 250 (280);
  //   0: monitor 0's at 0 (30), monitor 1's at 50 (90);
  //   100, twice: monitor 0 skips its unfinished job to the one at 200
  //     (260), monitor 1's at 250 (280);
  //   50: monitor 0 again 260, monitor 1's own release (90);
  //   260: monitor 1 releases nothing after it, so it is undetected.
  const auto all =
      sim::detect_planned_attacks(trace, 0, 2, scoped(sim::AttackScope::kAllTasks), plan);
  EXPECT_EQ(all.detection_ms,
            (std::vector<double>{ms(80), ms(90), ms(180), ms(180), ms(210)}));
  EXPECT_EQ(all.undetected, 1u);
  EXPECT_EQ(all.deadline_misses, 1u);

  // Single task: each trial's victim alone.
  const auto single =
      sim::detect_planned_attacks(trace, 0, 2, scoped(sim::AttackScope::kSingleTask), plan);
  EXPECT_EQ(single.detection_ms, (std::vector<double>{ms(60), ms(90), ms(180), ms(160), ms(40)}));
  EXPECT_EQ(single.undetected, 1u);
  expect_pass_matches_lookup(trace, 0, 2, plan);
}

TEST(DetectPlannedAttacks, RejectsMissingMonitorsAndVictims) {
  sim::Trace trace;
  trace.jobs = {{job(0, 10)}};
  const sim::AttackPlan plan({{0, 1}});
  EXPECT_THROW(sim::detect_planned_attacks(trace, 0, 2, scoped(sim::AttackScope::kAllTasks), plan),
               std::invalid_argument);
  EXPECT_THROW(
      sim::detect_planned_attacks(trace, 0, 1, scoped(sim::AttackScope::kSingleTask), plan),
      std::invalid_argument);
  EXPECT_THROW(sim::detect_planned_attacks(trace, 0, 0, scoped(sim::AttackScope::kAllTasks), plan),
               std::invalid_argument);
}

TEST(DetectPlannedAttacks, OnePassMatchesTheLookupOnSeededTraces) {
  // Random monitor histories with duplicate and release-aligned attack
  // instants, unfinished jobs, empty monitors and attacks past the last
  // release; RT slots ahead of the monitors stay empty, as in band traces.
  hydra::util::Xoshiro256 rng(37);
  std::size_t detected = 0, undetected = 0;
  for (std::size_t round = 0; round < 400; ++round) {
    const std::size_t nr = rng.uniform_int(0, 2);
    const std::size_t ns = rng.uniform_int(1, 4);
    sim::Trace trace;
    trace.jobs.assign(nr + ns, {});
    std::vector<SimTime> releases;
    for (std::size_t s = 0; s < ns; ++s) {
      const std::size_t jobs = rng.uniform_int(0, 12);
      SimTime at = rng.uniform_int(0, 20);
      const std::uint64_t done_percent = rng.uniform_int(0, 100);
      for (std::size_t j = 0; j < jobs; ++j) {
        const bool completes = rng.uniform_int(1, 100) <= done_percent;
        trace.jobs[nr + s].push_back(
            job(at, completes ? std::optional(at + rng.uniform_int(1, 40)) : std::nullopt));
        releases.push_back(at);
        at += rng.uniform_int(1, 25);
      }
    }
    std::vector<sim::AttackTrial> trials(rng.uniform_int(1, 40));
    for (auto& trial : trials) {
      // A third of the attacks land exactly on some monitor's release.
      trial.at = !releases.empty() && rng.uniform_int(0, 2) == 0
                     ? releases[rng.uniform_int(0, releases.size() - 1)]
                     : rng.uniform_int(0, 320);
      trial.victim = rng.uniform_int(0, ns - 1);
    }
    const sim::AttackPlan plan(std::move(trials));
    SCOPED_TRACE("round " + std::to_string(round));
    expect_pass_matches_lookup(trace, nr, ns, plan);
    const auto all =
        sim::detect_planned_attacks(trace, nr, ns, scoped(sim::AttackScope::kAllTasks), plan);
    detected += all.detection_ms.size();
    undetected += all.undetected;
  }
  // The draws exercise both outcomes, not just one.
  EXPECT_GT(detected, 1000u);
  EXPECT_GT(undetected, 1000u);
}

TEST(DetectPlannedAttacks, OnePassMatchesTheLookupOnSimulatedSchedules) {
  for (const std::size_t m : {2u, 4u}) {
    const auto inst = hydra::gen::uav_case_study(m);
    const auto allocation = core::HydraAllocator().allocate(inst);
    ASSERT_TRUE(allocation.feasible);
    const auto tasks = sim::build_sim_tasks(inst, allocation);
    const sim::Trace trace = sim::simulate(tasks, {quick_config().horizon});
    const std::size_t nr = inst.rt_tasks.size();
    const std::size_t ns = inst.security_tasks.size();
    for (const auto scope : {sim::AttackScope::kAllTasks, sim::AttackScope::kSingleTask}) {
      auto config = quick_config();
      config.scope = scope;
      config.trials = 500;
      expect_pass_matches_lookup(trace, nr, ns, sim::plan_attacks(tasks, nr, ns, config));
    }
  }
}
