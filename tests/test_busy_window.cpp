// Property tests for sim::BusyWindow (the mode controller's sliding-window
// busy history) against a naive O(n) oracle that never prunes.
//
// The pruning contract under test (busy_window.h): as long as every
// busy_in(from, to) query ends in (latest add - keep, latest add] and spans
// at most keep ticks, a pruned segment can never intersect the query window,
// so BusyWindow and the oracle agree exactly — across random add/query
// sequences, merge-triggering adjacency, compaction (head_ > 1024), a keep
// longer than the whole run (no pruning, queries from 0), and queries that
// trail the latest add.  Queries are differences of prefix sums found by
// binary search, so the oracle also pins every segment edge: a query
// boundary inside, at the start of, or at the end of a segment.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/busy_window.h"
#include "util/rng.h"

namespace sim = hydra::sim;
using hydra::util::SimTime;

namespace {

/// The specification: every segment kept forever, intersection summed
/// directly.
class NaiveBusyWindow {
 public:
  void add(SimTime from, SimTime to) {
    if (to <= from) return;
    segments_.emplace_back(from, to);
  }

  SimTime busy_in(SimTime from, SimTime to) const {
    SimTime busy = 0;
    for (const auto& seg : segments_) {
      const SimTime lo = seg.first > from ? seg.first : from;
      const SimTime hi = seg.second < to ? seg.second : to;
      if (hi > lo) busy += hi - lo;
    }
    return busy;
  }

 private:
  std::vector<std::pair<SimTime, SimTime>> segments_;
};

}  // namespace

TEST(BusyWindow, HandComputedIntersections) {
  sim::BusyWindow w(100);
  w.add(10, 20);
  w.add(20, 25);  // adjacent: merges with the previous segment
  w.add(40, 50);
  EXPECT_EQ(w.busy_in(0, 100), 25u);
  EXPECT_EQ(w.busy_in(15, 45), 15u);  // 10 from [15,25) + 5 from [40,45)
  EXPECT_EQ(w.busy_in(25, 40), 0u);
  EXPECT_EQ(w.busy_in(19, 21), 2u);
  EXPECT_EQ(w.busy_in(50, 60), 0u);
  EXPECT_EQ(w.busy_in(20, 20), 0u);  // empty window
}

TEST(BusyWindow, ZeroLengthAddIsIgnored) {
  sim::BusyWindow w(50);
  w.add(10, 10);
  EXPECT_EQ(w.busy_in(0, 100), 0u);
  w.add(10, 12);
  EXPECT_EQ(w.busy_in(0, 100), 2u);
}

TEST(BusyWindow, MatchesOracleOnRandomScheduleShapedSequences) {
  // Schedule-shaped load: chronological busy segments with random gaps and
  // lengths, interleaved with queries whose windows lie inside the retention
  // contract.  Several (keep, density) regimes, fixed seeds.
  const struct {
    SimTime keep;
    SimTime min_gap;
    SimTime max_gap;
    SimTime max_len;
    std::uint64_t seed;
  } regimes[] = {
      {50, 0, 10, 8, 1},       // dense, tiny retention: constant pruning
      {400, 0, 30, 20, 2},     // moderate
      {2000, 0, 200, 150, 3},  // sparse long segments
      {64, 0, 2, 3, 4},        // near-saturated core, many merges
      // keep >= the horizon (fig5's window): nothing is ever pruned, and
      // queries reach back to 0 across every segment.
      {SimTime{1} << 40, 0, 10, 8, 5},
      // Spaced segments that never merge with retention for about 20 of
      // them: head_ passes 1,024 and the vector compacts every ~1,000 adds.
      {200, 1, 30, 5, 6},
  };

  for (const auto& regime : regimes) {
    sim::BusyWindow window(regime.keep);
    NaiveBusyWindow oracle;
    hydra::util::Xoshiro256 rng(regime.seed);

    SimTime clock = 0;
    for (int step = 0; step < 20000; ++step) {
      const SimTime gap = rng.uniform_int(regime.min_gap, regime.max_gap);
      const SimTime len = rng.uniform_int(1, regime.max_len);
      window.add(clock + gap, clock + gap + len);
      oracle.add(clock + gap, clock + gap + len);
      clock += gap + len;

      if (step % 3 == 0) {
        // A query ending at a decision instant within (clock - keep, clock],
        // reaching back at most `keep` — the engine's usage pattern.
        const SimTime lag = rng.uniform_int(0, std::min(regime.keep / 2, clock));
        const SimTime at = clock > lag ? clock - lag : 0;
        const SimTime span_cap = regime.keep - lag;
        const SimTime span = span_cap > 0 ? rng.uniform_int(1, std::min(span_cap, at + 1)) : 1;
        const SimTime from = at > span ? at - span : 0;
        ASSERT_EQ(window.busy_in(from, at), oracle.busy_in(from, at))
            << "keep=" << regime.keep << " step=" << step << " query=[" << from
            << "," << at << ")";
      }
    }
  }
}

TEST(BusyWindow, CompactionKeepsAnswersExact) {
  // Tiny keep + long run forces head_ past the 1024 compaction threshold many
  // times; answers must stay equal to the oracle throughout.
  sim::BusyWindow window(16);
  NaiveBusyWindow oracle;
  SimTime clock = 0;
  for (int i = 0; i < 30000; ++i) {
    window.add(clock, clock + 2);
    oracle.add(clock, clock + 2);
    clock += 5;
    const SimTime from = clock >= 16 ? clock - 16 : 0;
    ASSERT_EQ(window.busy_in(from, clock), oracle.busy_in(from, clock)) << i;
  }
}

TEST(BusyWindow, KeepCoveringWindowPlusLagServesLaggingQueries) {
  // A query instant may trail the latest add: with keep = window + lag, a
  // query of `window` ticks ending up to `lag` behind the latest add still
  // sees every segment it overlaps.
  const SimTime query_window = 100;
  const SimTime lag = 40;
  sim::BusyWindow window(query_window + lag);
  NaiveBusyWindow oracle;
  hydra::util::Xoshiro256 rng(99);

  SimTime clock = 0;
  for (int step = 0; step < 10000; ++step) {
    const SimTime gap = rng.uniform_int(0, 6);
    const SimTime len = rng.uniform_int(1, 10);
    window.add(clock + gap, clock + gap + len);
    oracle.add(clock + gap, clock + gap + len);
    clock += gap + len;

    const SimTime behind = rng.uniform_int(0, lag);
    const SimTime at = clock > behind ? clock - behind : 0;
    const SimTime from = at > query_window ? at - query_window : 0;
    ASSERT_EQ(window.busy_in(from, at), oracle.busy_in(from, at)) << step;
  }
}
