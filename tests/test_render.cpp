// Tests for segment recording, Gantt rendering and CSV trace export.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/engine.h"
#include "sim/render.h"

namespace sim = hydra::sim;
using hydra::util::SimTime;

namespace {

sim::SimTask make(const std::string& name, SimTime wcet, SimTime period, std::size_t core,
                  int priority) {
  sim::SimTask t;
  t.name = name;
  t.wcet = wcet;
  t.period = period;
  t.deadline = period;
  t.core = core;
  t.priority = priority;
  return t;
}

}  // namespace

TEST(Segments, RecordedOnlyWhenRequested) {
  const auto task = make("a", 10, 100, 0, 0);
  sim::SimOptions opts;
  opts.horizon = 500;
  EXPECT_TRUE(sim::simulate({task}, opts).segments.empty());
  opts.record_segments = true;
  const auto trace = sim::simulate({task}, opts);
  ASSERT_EQ(trace.segments.size(), 5u);  // 5 jobs, no preemption
  for (const auto& seg : trace.segments) {
    EXPECT_EQ(seg.task, 0u);
    EXPECT_EQ(seg.core, 0u);
    EXPECT_EQ(seg.to - seg.from, 10u);
  }
}

TEST(Segments, PreemptionSplitsSegments) {
  const auto hi = make("hi", 20, 50, 0, 0);
  const auto lo = make("lo", 40, 100, 0, 1);
  sim::SimOptions opts;
  opts.horizon = 100;
  opts.record_segments = true;
  const auto trace = sim::simulate({hi, lo}, opts);
  // lo runs [20,50) and [70,80): two segments.
  int lo_segments = 0;
  SimTime lo_exec = 0;
  for (const auto& seg : trace.segments) {
    if (seg.task == 1) {
      ++lo_segments;
      lo_exec += seg.to - seg.from;
    }
  }
  EXPECT_EQ(lo_segments, 2);
  EXPECT_EQ(lo_exec, 40u);
}

TEST(Segments, CoverExactlyTheBusyTime) {
  const auto a = make("a", 13, 70, 0, 0);
  const auto b = make("b", 29, 110, 0, 1);
  sim::SimOptions opts;
  opts.horizon = 5000;
  opts.record_segments = true;
  const auto trace = sim::simulate({a, b}, opts);
  SimTime covered = 0;
  for (const auto& seg : trace.segments) {
    EXPECT_LT(seg.from, seg.to);
    covered += seg.to - seg.from;
  }
  EXPECT_EQ(covered, trace.core_busy[0]);
}

TEST(Gantt, RendersRowsPerCoreWithLegend) {
  const auto a = make("alpha", 50, 100, 0, 0);
  const auto b = make("beta", 100, 200, 1, 0);
  sim::SimOptions opts;
  opts.horizon = 400;
  opts.record_segments = true;
  const auto trace = sim::simulate({a, b}, opts);
  const auto text = sim::render_gantt(trace, {a, b}, {0, 400, 40});
  EXPECT_NE(text.find("core 0"), std::string::npos);
  EXPECT_NE(text.find("core 1"), std::string::npos);
  EXPECT_NE(text.find("a=alpha"), std::string::npos);
  EXPECT_NE(text.find("b=beta"), std::string::npos);
  // Core 0 is 50% utilized: both 'a' and idle columns must appear.
  const auto row0 = text.substr(text.find("core 0"));
  EXPECT_NE(row0.find('a'), std::string::npos);
  EXPECT_NE(row0.find('.'), std::string::npos);
}

TEST(Gantt, RequiresSegmentsAndSaneWindow) {
  const auto a = make("a", 10, 100, 0, 0);
  sim::SimOptions opts;
  opts.horizon = 200;
  const auto no_segments = sim::simulate({a}, opts);
  EXPECT_THROW(sim::render_gantt(no_segments, {a}), std::invalid_argument);
  opts.record_segments = true;
  const auto trace = sim::simulate({a}, opts);
  EXPECT_THROW(sim::render_gantt(trace, {a}, {100, 100, 50}), std::invalid_argument);
  EXPECT_THROW(sim::render_gantt(trace, {a}, {0, 200, 4}), std::invalid_argument);
}
