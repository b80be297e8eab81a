// Tests for the discrete-event scheduler: hand-checkable schedules,
// preemption semantics, deadline misses, execution conservation, and trace
// queries.
#include <gtest/gtest.h>

#include <string>

#include "sim/engine.h"
#include "sim/task.h"

namespace sim = hydra::sim;
using hydra::util::SimTime;

namespace {

sim::SimTask make(const std::string& name, SimTime wcet, SimTime period, std::size_t core,
                  int priority, SimTime offset = 0) {
  sim::SimTask t;
  t.name = name;
  t.wcet = wcet;
  t.period = period;
  t.deadline = period;
  t.core = core;
  t.priority = priority;
  t.release_offset = offset;
  return t;
}

}  // namespace

TEST(Engine, SingleTaskRunsBackToBack) {
  const auto trace = sim::simulate({make("a", 30, 100, 0, 0)}, {1000});
  ASSERT_EQ(trace.jobs.size(), 1u);
  ASSERT_EQ(trace.jobs[0].size(), 10u);  // releases at 0, 100, ..., 900
  for (std::size_t k = 0; k < 10; ++k) {
    const auto& job = trace.jobs[0][k];
    EXPECT_EQ(job.release, k * 100);
    EXPECT_EQ(job.start, job.release);
    EXPECT_EQ(job.completion, job.release + 30);
    EXPECT_TRUE(job.completed);
    EXPECT_FALSE(job.deadline_missed);
  }
  EXPECT_EQ(trace.core_busy[0], 300u);
}

TEST(Engine, PreemptionByHigherPriority) {
  // lo releases at 0 (wcet 50), hi at 10 (wcet 20): lo runs [0,10) with 40
  // remaining, is preempted [10,30), resumes [30,70) and completes at 70.
  const auto lo = make("lo", 50, 1000, 0, 5);
  const auto hi = make("hi", 20, 1000, 0, 1, 10);
  const auto trace = sim::simulate({lo, hi}, {1000});
  EXPECT_EQ(trace.jobs[1][0].start, 10u);
  EXPECT_EQ(trace.jobs[1][0].completion, 30u);
  EXPECT_EQ(trace.jobs[0][0].start, 0u);
  EXPECT_EQ(trace.jobs[0][0].completion, 70u);
}

TEST(Engine, CoresAreIndependent) {
  const auto a = make("a", 60, 100, 0, 0);
  const auto b = make("b", 60, 100, 1, 0);
  const auto trace = sim::simulate({a, b}, {1000});
  // Same-priority tasks on different cores never interfere.
  for (const auto& job : trace.jobs[0]) EXPECT_EQ(job.completion - job.release, 60u);
  for (const auto& job : trace.jobs[1]) EXPECT_EQ(job.completion - job.release, 60u);
}

TEST(Engine, DuplicatePriorityOnSameCoreRejected) {
  const auto a = make("a", 10, 100, 0, 3);
  const auto b = make("b", 10, 100, 0, 3);
  EXPECT_THROW(sim::simulate({a, b}, {1000}), std::invalid_argument);
}

TEST(Engine, OverloadedCoreMissesDeadlines) {
  // Demand 1.5 on one core: misses must be reported.
  const auto a = make("a", 75, 100, 0, 0);
  const auto b = make("b", 75, 100, 0, 1);
  const auto trace = sim::simulate({a, b}, {2000});
  EXPECT_GT(trace.deadline_misses(), 0u);
}

TEST(Engine, RmFeasibleSetHasNoMisses) {
  // Classic RM-schedulable trio (see RTA test): zero misses in simulation.
  const auto t1 = make("t1", 1000, 4000, 0, 0);
  const auto t2 = make("t2", 2000, 6000, 0, 1);
  const auto t3 = make("t3", 3000, 12000, 0, 2);
  const auto trace = sim::simulate({t1, t2, t3}, {120000});
  EXPECT_EQ(trace.deadline_misses(), 0u);
  // Worst-case response of t3 (synchronous release) is 10000 — the simulator
  // must reproduce it at the critical instant (first job).
  EXPECT_EQ(trace.jobs[2][0].completion, 10000u);
}

TEST(Engine, ExecutionTimeIsConserved) {
  // Busy time per core equals the summed WCET of completed jobs there.
  const auto a = make("a", 20, 70, 0, 0);
  const auto b = make("b", 30, 110, 0, 1);
  const auto trace = sim::simulate({a, b}, {10000});
  SimTime executed = 0;
  for (std::size_t t = 0; t < 2; ++t) {
    for (const auto& job : trace.jobs[t]) {
      if (job.completed) executed += (t == 0 ? 20u : 30u);
    }
  }
  EXPECT_EQ(trace.core_busy[0], executed);
}

TEST(Engine, ReleaseOffsetsHonoured) {
  const auto a = make("a", 10, 100, 0, 0, 55);
  const auto trace = sim::simulate({a}, {300});
  ASSERT_EQ(trace.jobs[0].size(), 3u);  // releases at 55, 155, 255
  EXPECT_EQ(trace.jobs[0][0].release, 55u);
  EXPECT_EQ(trace.jobs[0][2].release, 255u);
}

TEST(Engine, JobsReleasedBeforeHorizonFinishInGracePeriod) {
  // Release at 90 (horizon 100), wcet 50: auto-grace lets it complete.
  const auto a = make("a", 50, 100, 0, 0, 90);
  const auto trace = sim::simulate({a}, {100});
  ASSERT_EQ(trace.jobs[0].size(), 1u);
  EXPECT_TRUE(trace.jobs[0][0].completed);
  EXPECT_EQ(trace.jobs[0][0].completion, 140u);
}

TEST(Engine, InvalidTasksRejected) {
  auto bad = make("bad", 0, 100, 0, 0);
  EXPECT_THROW(sim::simulate({bad}, {1000}), std::invalid_argument);
  bad = make("bad", 200, 100, 0, 0);  // wcet > deadline
  EXPECT_THROW(sim::simulate({bad}, {1000}), std::invalid_argument);
  EXPECT_THROW(sim::simulate({make("a", 1, 10, 0, 0)}, {0}), std::invalid_argument);
  // An execution fraction the engine cannot draw from: NaN, or outside [0, 1]
  // (a negative one used to turn into a huge unsigned job length).
  for (const double fraction : {std::nan(""), -3.0, 1.5}) {
    auto varying = make("varying", 10, 100, 0, 0);
    varying.exec_fraction_min = fraction;
    try {
      sim::simulate({varying}, {1000});
      ADD_FAILURE() << "exec_fraction_min " << fraction << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("varying"), std::string::npos) << error.what();
    }
  }
}

TEST(Trace, FirstCompletionReleasedAfterQuery) {
  const auto a = make("a", 30, 100, 0, 0);
  const auto trace = sim::simulate({a}, {1000});
  // Attack at t = 150: the first job released after is at 200, done at 230.
  const auto hit = trace.first_completion_released_after(0, 150);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 230u);
  // Attack exactly at a release boundary counts that release.
  const auto boundary = trace.first_completion_released_after(0, 200);
  ASSERT_TRUE(boundary.has_value());
  EXPECT_EQ(*boundary, 230u);
  // Attack beyond the last release: no detection.
  EXPECT_FALSE(trace.first_completion_released_after(0, 950).has_value());
  EXPECT_THROW(trace.first_completion_released_after(7, 0), std::invalid_argument);
}

TEST(Trace, CountsTotals) {
  const auto a = make("a", 10, 100, 0, 0);
  const auto b = make("b", 10, 200, 0, 1);
  const auto trace = sim::simulate({a, b}, {1000});
  EXPECT_EQ(trace.total_jobs(), 10u + 5u);
  EXPECT_EQ(trace.deadline_misses(), 0u);
}

TEST(Engine, SeedDoesNotMoveAWcetExactSchedule) {
  const auto t = make("periodic", 10, 100, 0, 0);
  sim::SimOptions a, b;
  a.horizon = b.horizon = 5000;
  a.seed = 1;
  b.seed = 2;  // different seeds must not matter without execution variation
  const auto ta = sim::simulate({t}, a);
  const auto tb = sim::simulate({t}, b);
  ASSERT_EQ(ta.jobs[0].size(), tb.jobs[0].size());
  for (std::size_t k = 0; k < ta.jobs[0].size(); ++k) {
    EXPECT_EQ(ta.jobs[0][k].release, tb.jobs[0][k].release);
    EXPECT_EQ(ta.jobs[0][k].completion, tb.jobs[0][k].completion);
  }
}

TEST(Engine, ExecVariationShortensJobs) {
  auto t = make("varying", 100, 1000, 0, 0);
  t.exec_fraction_min = 0.3;
  sim::SimOptions opts;
  opts.horizon = 100000;
  opts.seed = 7;
  const auto trace = sim::simulate({t}, opts);
  bool saw_short = false;
  for (const auto& job : trace.jobs[0]) {
    const auto exec = job.completion - job.start;  // no preemption here
    EXPECT_GE(exec, 30u);   // >= fraction_min · wcet
    EXPECT_LE(exec, 100u);  // <= wcet
    if (exec < 100u) saw_short = true;
  }
  EXPECT_TRUE(saw_short);
}

TEST(Engine, ExecVariationReproducibleBySeed) {
  auto t = make("varying", 100, 1000, 0, 0);
  t.exec_fraction_min = 0.5;
  sim::SimOptions opts;
  opts.horizon = 50000;
  opts.seed = 31;
  const auto a = sim::simulate({t}, opts);
  const auto b = sim::simulate({t}, opts);
  ASSERT_EQ(a.jobs[0].size(), b.jobs[0].size());
  for (std::size_t k = 0; k < a.jobs[0].size(); ++k) {
    EXPECT_EQ(a.jobs[0][k].completion, b.jobs[0][k].completion);
  }
}

TEST(Engine, HeavyInterleavingMatchesHandSchedule) {
  // Two tasks, harmonic: hi (20/50), lo (40/100).  Timeline:
  //   hi [0,20); lo [20,50) with 10 left; hi's second job [50,70);
  //   lo resumes [70,80) and completes at 80.
  const auto hi = make("hi", 20, 50, 0, 0);
  const auto lo = make("lo", 40, 100, 0, 1);
  const auto trace = sim::simulate({hi, lo}, {100});
  EXPECT_EQ(trace.jobs[0][0].completion, 20u);
  EXPECT_EQ(trace.jobs[0][1].start, 50u);
  EXPECT_EQ(trace.jobs[0][1].completion, 70u);
  EXPECT_EQ(trace.jobs[1][0].start, 20u);
  EXPECT_EQ(trace.jobs[1][0].completion, 80u);
  EXPECT_FALSE(trace.jobs[1][0].deadline_missed);
}
