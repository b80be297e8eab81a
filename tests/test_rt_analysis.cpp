// Tests for DBF (paper Eq. 1) and exact response-time analysis, including
// hand-worked textbook examples and property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/batch.h"
#include "exp/sweep.h"
#include "gen/synthetic.h"
#include "io/taskset_io.h"
#include "oracles/rt_bounds.h"
#include "rt/analysis.h"
#include "rt/task.h"
#include "util/rng.h"

namespace oracle = hydra::oracle;
namespace rt = hydra::rt;

TEST(Dbf, StepsAtDeadlinePoints) {
  const auto t = rt::make_rt_task("a", 2.0, 10.0);  // D = 10
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 9.999), 0.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 19.999), 2.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 20.0), 4.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 100.0), 20.0);
}

TEST(Dbf, ConstrainedDeadlineShiftsSteps) {
  const rt::RtTask t{"a", 2.0, 10.0, 6.0};
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 6.0), 2.0);
  EXPECT_DOUBLE_EQ(oracle::dbf(t, 16.0), 4.0);
}

TEST(Dbf, IsMonotoneNonDecreasing) {
  const auto t = rt::make_rt_task("a", 3.0, 7.0);
  double prev = 0.0;
  for (double x = 0.0; x < 100.0; x += 0.5) {
    const double v = oracle::dbf(t, x);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(NecessaryCondition, PassesLightLoad) {
  const std::vector<rt::RtTask> tasks{rt::make_rt_task("a", 1.0, 10.0),
                                      rt::make_rt_task("b", 2.0, 20.0)};
  EXPECT_TRUE(rt::dbf_necessary_condition(tasks, 1));
  EXPECT_TRUE(rt::dbf_necessary_condition(tasks, 4));
}

TEST(NecessaryCondition, FailsWhenUtilizationExceedsCores) {
  const std::vector<rt::RtTask> tasks{rt::make_rt_task("a", 9.0, 10.0),
                                      rt::make_rt_task("b", 9.0, 10.0),
                                      rt::make_rt_task("c", 9.0, 10.0)};
  EXPECT_FALSE(rt::dbf_necessary_condition(tasks, 2));  // U = 2.7 > 2
  EXPECT_TRUE(rt::dbf_necessary_condition(tasks, 3));
}

TEST(NecessaryCondition, ChecksTheDeadlinePointNearestTheHorizon) {
  // Regression for the `t += period` checkpoint drift: 0.1 is not
  // representable in binary, and 10^5 repeated additions overshoot the exact
  // k-th deadline point D + k·T by ~1.9e-8 — enough to push task a's LAST
  // checkpoint past a horizon that the multiplication form lands on exactly,
  // silently skipping the one demand point that violates Eq. (1).
  const double period = 0.1;
  const std::uint64_t k = 99999;
  const rt::RtTask a{"a", 0.09, period, period};
  const double t_star = a.deadline + static_cast<double>(k) * a.period;

  double t_acc = a.deadline;
  for (std::uint64_t j = 0; j < k; ++j) t_acc += a.period;
  ASSERT_GT(t_acc, t_star);  // the drift regime this test exists for

  // Task b places the FIRST violation exactly at a's t* checkpoint: at b's
  // own (exact, drift-free) deadline t* − 0.05 the demand is 0.02 under
  // capacity, one more job of a at t* puts it 0.02 over — margins far wider
  // than kTimeEpsilon and any accumulation noise.
  const rt::RtTask b{"b", 0.1 * t_star + 0.02, 1e9, t_star - 0.05};
  EXPECT_FALSE(rt::dbf_necessary_condition({a, b}, 1, t_star));
  // A horizon short of t* never sees the violation: the verdict flips on
  // exactly that last checkpoint.
  EXPECT_TRUE(rt::dbf_necessary_condition({a, b}, 1, t_star - 0.01));
}

TEST(NecessaryCondition, MatchesBruteForceOnRandomTaskSets) {
  // The event-sweep implementation must agree with the definitional check:
  // Σ dbf(τ, t) ≤ M·t evaluated at every multiplication-form deadline point.
  hydra::util::Xoshiro256 rng(424242);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<rt::RtTask> tasks;
    const int n = 1 + static_cast<int>(rng.uniform(0.0, 4.0));
    for (int i = 0; i < n; ++i) {
      const double p = rng.uniform(0.05, 12.0);
      const double d = rng.uniform(0.5, 1.0) * p;  // constrained deadlines too
      const double c = rng.uniform(0.1, 0.9) * d;
      tasks.push_back(rt::RtTask{"t" + std::to_string(i), c, p, d});
    }
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform(0.0, 2.0));

    double h = 0.0;
    for (const auto& task : tasks) h = std::max(h, 2.0 * (task.deadline + task.period));
    bool reference = true;
    double total_util = 0.0;
    for (const auto& task : tasks) total_util += task.utilization();
    if (total_util > static_cast<double>(m) + 1e-6) reference = false;
    for (const auto& task : tasks) {
      if (!reference) break;
      for (std::uint64_t j = 0;; ++j) {
        const double t = task.deadline + static_cast<double>(j) * task.period;
        if (t > h) break;
        double demand = 0.0;
        for (const auto& other : tasks) demand += oracle::dbf(other, t);
        if (demand > static_cast<double>(m) * t + 1e-6) {
          reference = false;
          break;
        }
      }
    }
    EXPECT_EQ(rt::dbf_necessary_condition(tasks, m), reference) << "rep " << rep;
  }
}

// ---------------------------------------------------------------------------
// The walk stops at L_a = Σ U_i·max(0, T_i − D_i) / (M − U): every verdict
// below must equal the uncapped walk of oracle::dbf_necessary_condition_full_walk.
// ---------------------------------------------------------------------------

namespace {

enum class DeadlineShape { kImplicit, kConstrained, kPastPeriod, kMixed };

/// A seeded set of `n` tasks with total utilization near `target`.  Half the
/// draws take periods from a small integer set, so deadline points coincide
/// and the demand meets its U·t + Σ U_i·max(0, T_i − D_i) bound exactly.
std::vector<rt::RtTask> seeded_task_set(hydra::util::Xoshiro256& rng, std::size_t n,
                                        double target, DeadlineShape shape) {
  static constexpr double kCoincident[] = {10.0, 20.0, 25.0, 40.0, 50.0, 100.0};
  const bool integer_periods = rng.uniform01() < 0.5;
  std::vector<double> weights(n);
  double total = 0.0;
  for (auto& w : weights) total += (w = rng.uniform(0.1, 1.0));
  std::vector<rt::RtTask> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    const double period = integer_periods ? kCoincident[rng.uniform_int(0, 5)]
                                          : std::exp(rng.uniform(0.0, std::log(500.0)));
    auto task_shape = shape;
    if (shape == DeadlineShape::kMixed) {
      task_shape = static_cast<DeadlineShape>(rng.uniform_int(0, 2));
    }
    double deadline = period;
    if (task_shape == DeadlineShape::kConstrained) deadline = rng.uniform(0.2, 1.0) * period;
    if (task_shape == DeadlineShape::kPastPeriod) deadline = rng.uniform(1.0, 3.0) * period;
    if (integer_periods && task_shape != DeadlineShape::kImplicit) {
      deadline = std::max(1.0, std::round(deadline));
    }
    tasks.push_back(rt::RtTask{"t" + std::to_string(i), target * weights[i] / total * period,
                               period, deadline});
  }
  return tasks;
}

/// Expects the production verdict to equal the full walk's; returns it.
bool expect_full_walk_verdict(const std::vector<rt::RtTask>& tasks, std::size_t m,
                              std::optional<double> horizon, const std::string& what) {
  const bool full_walk = oracle::dbf_necessary_condition_full_walk(tasks, m, horizon);
  EXPECT_EQ(rt::dbf_necessary_condition(tasks, m, horizon), full_walk) << what;
  return full_walk;
}

/// Whether L_a = Σ U_i·max(0, T_i − D_i) / (M − U) lies strictly between 0
/// and the horizon, so the capped walk runs but stops short of the horizon.
bool cap_cuts_walk(const std::vector<rt::RtTask>& tasks, std::size_t m,
                   std::optional<double> horizon) {
  double h = 0.0;
  for (const auto& task : tasks) h = std::max(h, 2.0 * (task.deadline + task.period));
  h = horizon.value_or(h);
  double numerator = 0.0;
  for (const auto& task : tasks) {
    numerator += task.utilization() * std::max(0.0, task.period - task.deadline);
  }
  const double slack = static_cast<double>(m) - rt::total_utilization(tasks);
  return numerator > 0.0 && slack > 0.0 && numerator / slack < h;
}

struct BatchOutcome {
  int accepted = 0;  ///< sets the full walk accepted
  int cut = 0;       ///< sets on which the cap stopped a running walk early
};

/// Runs `count` seeded sets of one shape, about half with an explicit
/// horizon, and checks each verdict against the full walk.
BatchOutcome differential_batch(std::uint64_t seed, int count, DeadlineShape shape,
                                double lo_share, double hi_share) {
  hydra::util::Xoshiro256 rng(seed);
  BatchOutcome outcome;
  for (int rep = 0; rep < count; ++rep) {
    const std::size_t m = std::size_t{1} << rng.uniform_int(0, 3);
    const std::size_t n = m + rng.uniform_int(1, 3 * m);
    const double target = static_cast<double>(m) * rng.uniform(lo_share, hi_share);
    const auto tasks = seeded_task_set(rng, n, target, shape);
    std::optional<double> horizon;
    if (rng.uniform01() < 0.5) horizon = rng.uniform(0.0, 2000.0);
    outcome.accepted += expect_full_walk_verdict(tasks, m, horizon, "rep " + std::to_string(rep));
    outcome.cut += cap_cuts_walk(tasks, m, horizon);
  }
  return outcome;
}

}  // namespace

TEST(NecessaryConditionCap, MatchesFullWalkOnImplicitSetsPackedNearM) {
  // U in [M − 1e-3, M + 2e-6]: the early return below M, the walk above it,
  // and the exact-M draws whose computed U lands on either side.
  hydra::util::Xoshiro256 rng(20261019);
  int accepted = 0;
  int rejected = 0;
  for (int rep = 0; rep < 800; ++rep) {
    const std::size_t m = std::size_t{1} << rng.uniform_int(0, 3);
    const std::size_t n = 2 * m + rng.uniform_int(0, 2 * m);
    const double mf = static_cast<double>(m);
    double target = mf;
    switch (rep % 4) {
      case 0: target = rng.uniform(mf - 1e-3, mf); break;
      case 1: break;
      default: target = rng.uniform(mf, mf + 2e-6); break;
    }
    const auto tasks = seeded_task_set(rng, n, target, DeadlineShape::kImplicit);
    const bool verdict = expect_full_walk_verdict(tasks, m, std::nullopt,
                                                  "rep " + std::to_string(rep));
    (verdict ? accepted : rejected) += 1;
  }
  // Both verdicts occur.
  EXPECT_GT(accepted, 400);
  EXPECT_GT(rejected, 50);
}

TEST(NecessaryConditionCap, MatchesFullWalkOnConstrainedDeadlines) {
  // Both verdicts occur, and on most sets the cap stops a running walk.
  const auto outcome = differential_batch(7, 600, DeadlineShape::kConstrained, 0.2, 1.0);
  EXPECT_GT(outcome.accepted, 50);
  EXPECT_GT(600 - outcome.accepted, 50);
  EXPECT_GT(outcome.cut, 300);
}

TEST(NecessaryConditionCap, MatchesFullWalkOnDeadlinesPastThePeriodAndMixedSets) {
  // Every D ≥ T set has L_a = 0: accepted without a walk unless U > M.
  const auto past = differential_batch(8, 400, DeadlineShape::kPastPeriod, 0.5, 1.0 + 2e-6);
  EXPECT_EQ(past.cut, 0);
  const auto mixed = differential_batch(9, 600, DeadlineShape::kMixed, 0.6, 1.0 + 2e-6);
  EXPECT_GT(mixed.accepted, 50);
  EXPECT_GT(600 - mixed.accepted, 20);
  EXPECT_GT(mixed.cut, 300);
}

TEST(NecessaryConditionCap, MatchesFullWalkOnTheCorpora) {
  int sets = 0;
  for (const char* dir : {"/tests/corpus", "/tests/corpus_controller", "/tests/corpus_sim"}) {
    for (const auto& file :
         hydra::exp::expand_workload_files(std::string(HYDRA_SOURCE_DIR) + dir)) {
      const auto instance = hydra::io::load_instance(file);
      for (std::size_t m = 1; m <= instance.num_cores; ++m) {
        expect_full_walk_verdict(instance.rt_tasks, m, std::nullopt,
                                 file + " on " + std::to_string(m) + " cores");
      }
      ++sets;
    }
  }
  EXPECT_GE(sets, 14);
}

TEST(NecessaryConditionCap, MatchesFullWalkOnUnfilteredFigureDraws) {
  // The generator's configurations of fig2 (M = 2, 4, 8), fig3 and fig5,
  // drawn without the Eq. (1) filter.
  struct Figure {
    std::string name;
    hydra::gen::SyntheticConfig config;
    std::vector<double> utilizations;
  };
  std::vector<Figure> figures;
  for (const std::size_t m : {2, 4, 8}) {
    hydra::gen::SyntheticConfig config;
    config.num_cores = m;
    figures.push_back({"fig2 M=" + std::to_string(m), config, hydra::exp::utilization_axis(m)});
  }
  hydra::gen::SyntheticConfig fig3;
  fig3.num_cores = 2;
  fig3.min_sec_per_core = 1;
  fig3.max_sec_per_core = 3;
  figures.push_back({"fig3", fig3, hydra::exp::utilization_axis(2)});
  hydra::gen::SyntheticConfig fig5;
  fig5.num_cores = 2;
  figures.push_back({"fig5", fig5, {0.6, 1.0, 1.4}});

  hydra::util::Xoshiro256 rng(5);
  int drawn = 0;
  for (const auto& figure : figures) {
    for (const double u : figure.utilizations) {
      for (int rep = 0; rep < 4; ++rep) {
        const auto draw = hydra::gen::generate_instance(figure.config, u, rng);
        if (!draw.has_value()) continue;
        expect_full_walk_verdict(draw->instance.rt_tasks, figure.config.num_cores, std::nullopt,
                                 figure.name + " u=" + std::to_string(u));
        ++drawn;
      }
    }
  }
  EXPECT_GT(drawn, 400);
}

TEST(NecessaryConditionCap, UtilizationExactlyMWithImplicitDeadlines) {
  // 3/12 + 6/8 = 1 exactly: L_a = 0, so no deadline point is walked.
  const std::vector<rt::RtTask> tasks{rt::make_rt_task("a", 3.0, 12.0),
                                      rt::make_rt_task("b", 6.0, 8.0)};
  ASSERT_EQ(rt::total_utilization(tasks), 1.0);
  EXPECT_TRUE(expect_full_walk_verdict(tasks, 1, std::nullopt, "U = 1"));
  std::vector<rt::RtTask> four(4, rt::make_rt_task("c", 5.0, 10.0));
  ASSERT_EQ(rt::total_utilization(four), 2.0);
  EXPECT_TRUE(expect_full_walk_verdict(four, 2, std::nullopt, "U = 2"));
}

TEST(NecessaryConditionCap, UtilizationJustAboveMStillWalks) {
  // U = 1 + 5e-7 is within ε of M, so the utilization check passes, but
  // the common deadline t = 10 carries 5e-6 more demand than M·t.
  const std::vector<rt::RtTask> over{rt::make_rt_task("a", 5.0, 10.0),
                                     rt::make_rt_task("b", 5.0 + 5e-6, 10.0)};
  ASSERT_GT(rt::total_utilization(over), 1.0);
  ASSERT_LE(rt::total_utilization(over), 1.0 + 1e-6);
  EXPECT_FALSE(expect_full_walk_verdict(over, 1, std::nullopt, "fails at t = 10"));
  // U = 1 + 2e-7 with T = 1: the excess reaches only 8e-7 by the horizon.
  const std::vector<rt::RtTask> within{rt::make_rt_task("a", 1.0 + 2e-7, 1.0)};
  EXPECT_TRUE(expect_full_walk_verdict(within, 1, std::nullopt, "within ε up to h"));
}

TEST(NecessaryConditionCap, ViolationJustBelowLaIsNotCut) {
  // Deadline points 5, 15 (a) and 25 (a and b): Σ DBF(25) = 12 + C_b meets
  // its U·t + Σ U_i·(T_i − D_i) bound, so the only violation, 1e-4 at
  // t = 25, sits 6e-4 below L_a.
  const rt::RtTask a{"a", 4.0, 10.0, 5.0};
  const rt::RtTask b{"b", 13.0 + 1e-4, 30.0, 25.0};
  const double l_a = (a.utilization() * 5.0 + b.utilization() * 5.0) /
                     (1.0 - a.utilization() - b.utilization());
  ASSERT_GT(l_a, 25.0);
  ASSERT_LT(l_a, 25.001);
  EXPECT_FALSE(expect_full_walk_verdict({a, b}, 1, std::nullopt, "violation at 25"));
  EXPECT_TRUE(expect_full_walk_verdict({a, b}, 1, 24.9, "horizon short of 25"));

  // A task with D > T adds nothing to the numerator; it must not pull L_a
  // below 25 (−U_c·(D_c − T_c) would put it at about 20.2).
  const rt::RtTask c{"c", 1.0, 100.0, 200.0};
  EXPECT_FALSE(expect_full_walk_verdict({a, b, c}, 1, std::nullopt, "with a D > T task"));
}

TEST(NecessaryConditionCap, ViolationPastAnExplicitHorizonButBelowLa) {
  const rt::RtTask a{"a", 4.0, 10.0, 5.0};
  const rt::RtTask b{"b", 13.0 + 1e-4, 30.0, 25.0};
  EXPECT_TRUE(expect_full_walk_verdict({a, b}, 1, 20.0, "horizon 20 < 25 < L_a"));
  EXPECT_FALSE(expect_full_walk_verdict({a, b}, 1, 25.0, "horizon on the violation"));
}

TEST(NecessaryConditionCap, SingleTask) {
  EXPECT_TRUE(expect_full_walk_verdict({rt::make_rt_task("a", 7.0, 10.0)}, 1, std::nullopt,
                                       "implicit"));
  EXPECT_TRUE(expect_full_walk_verdict({rt::RtTask{"a", 3.0, 10.0, 4.0}}, 1, std::nullopt,
                                       "constrained, C < D"));
  EXPECT_FALSE(expect_full_walk_verdict({rt::RtTask{"a", 5.0, 10.0, 4.0}}, 1, std::nullopt,
                                        "constrained, C > D"));
  EXPECT_TRUE(expect_full_walk_verdict({rt::RtTask{"a", 5.0, 10.0, 40.0}}, 1, std::nullopt,
                                       "D > T"));
}

TEST(NecessaryConditionCap, EmptySet) {
  for (const std::size_t m : {1, 3}) {
    EXPECT_TRUE(expect_full_walk_verdict({}, m, std::nullopt, "default horizon"));
    EXPECT_TRUE(expect_full_walk_verdict({}, m, 50.0, "explicit horizon"));
  }
}

TEST(ResponseTime, NoInterferenceEqualsWcet) {
  const auto t = rt::make_rt_task("a", 3.0, 10.0);
  const auto r = rt::response_time(rt::timing_of(t), {});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 3.0);
}

TEST(ResponseTime, ClassicTextbookExample) {
  // Liu & Layland style: τ1 = (1, 4), τ2 = (2, 6), τ3 = (3, 12) — RM.
  // R1 = 1. R2 = 2 + ceil(R2/4)·1 → 3. R3 = 3 + ceil(R3/4)·1 + ceil(R3/6)·2:
  //   R = 3 → 3+1+2 = 6 → 3+2+2 = 7 → 3+2+4 = 9 → 3+3+4 = 10 → 3+3+4 = 10. ✓
  const auto t1 = rt::make_rt_task("t1", 1.0, 4.0);
  const auto t2 = rt::make_rt_task("t2", 2.0, 6.0);
  const auto t3 = rt::make_rt_task("t3", 3.0, 12.0);
  EXPECT_DOUBLE_EQ(*rt::response_time(rt::timing_of(t2), rt::timings_of({t1})), 3.0);
  const auto r3 = rt::response_time(rt::timing_of(t3), rt::timings_of({t1, t2}));
  ASSERT_TRUE(r3.has_value());
  EXPECT_DOUBLE_EQ(*r3, 10.0);
}

TEST(ResponseTime, UnschedulableReturnsNullopt) {
  const auto hp = rt::make_rt_task("hp", 5.0, 10.0);
  const auto lo = rt::make_rt_task("lo", 6.0, 10.0);  // 0.5 + 0.6 > 1
  EXPECT_FALSE(rt::response_time(rt::timing_of(lo), rt::timings_of({hp})).has_value());
}

TEST(ResponseTime, ExactlyFullUtilizationBoundary) {
  // τ1 = (5, 10), τ2 = (5, 10): U = 1.0; R2 would never converge below D.
  const auto hp = rt::make_rt_task("hp", 5.0, 10.0);
  const auto lo = rt::make_rt_task("lo", 5.0, 10.0);
  const auto r = rt::response_time(rt::timing_of(lo), rt::timings_of({hp}));
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 10.0);  // completes exactly at the deadline
}

TEST(CoreSchedulable, AcceptsAndRejects) {
  EXPECT_TRUE(rt::core_schedulable_rm(std::vector<rt::RtTiming>{
      {1.0, 4.0, 4.0}, {2.0, 6.0, 6.0}, {3.0, 12.0, 12.0}}));
  EXPECT_FALSE(rt::core_schedulable_rm(std::vector<rt::RtTiming>{
      {5.0, 10.0, 10.0}, {5.1, 10.0, 10.0}}));
  EXPECT_TRUE(rt::core_schedulable_rm({}));
}

TEST(LiuLayland, KnownValues) {
  EXPECT_DOUBLE_EQ(oracle::liu_layland_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(oracle::liu_layland_bound(1), 1.0);
  EXPECT_NEAR(oracle::liu_layland_bound(2), 0.8284, 1e-4);
  EXPECT_NEAR(oracle::liu_layland_bound(3), 0.7798, 1e-4);
  // Limit: ln 2 ≈ 0.6931.
  EXPECT_NEAR(oracle::liu_layland_bound(1000), std::log(2.0), 1e-3);
}

TEST(LiuLayland, SufficiencyAgreesWithExactRta) {
  // Any random set below the LL bound must pass exact RTA (sufficiency).
  hydra::util::Xoshiro256 rng(2024);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    std::vector<rt::RtTask> tasks;
    double budget = oracle::liu_layland_bound(n) * 0.98;
    for (std::size_t i = 0; i < n; ++i) {
      const double u = budget / static_cast<double>(n);
      const double period = rng.uniform(5.0, 500.0);
      tasks.push_back(rt::make_rt_task("t" + std::to_string(i), u * period, period));
    }
    EXPECT_TRUE(rt::core_schedulable_rm(rt::timings_of(tasks)));
  }
}

TEST(ResponseTime, MonotoneInInterferenceSweep) {
  // Adding interferers can only increase the response time.
  const auto task = rt::make_rt_task("x", 2.0, 50.0);
  std::vector<rt::RtTask> hp;
  double prev = 0.0;
  for (int i = 0; i < 5; ++i) {
    const auto r = rt::response_time(rt::timing_of(task), rt::timings_of(hp));
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(*r, prev);
    prev = *r;
    hp.push_back(rt::make_rt_task("hp" + std::to_string(i), 1.0, 10.0 + i));
  }
}

TEST(HyperbolicBound, DominatesLiuLayland) {
  // Any set passing LL also passes the hyperbolic bound (strict dominance).
  hydra::util::Xoshiro256 rng(606);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    std::vector<rt::RtTask> tasks;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double period = rng.uniform(5.0, 500.0);
      const double u = rng.uniform(0.01, 0.3);
      total += u;
      tasks.push_back(rt::make_rt_task("t" + std::to_string(i), u * period, period));
    }
    if (total <= oracle::liu_layland_bound(n)) {
      EXPECT_TRUE(oracle::hyperbolic_bound_holds(tasks));
    }
    if (oracle::hyperbolic_bound_holds(tasks)) {
      EXPECT_TRUE(rt::core_schedulable_rm(rt::timings_of(tasks)));  // sufficiency
    }
  }
}

TEST(HyperbolicBound, KnownCases) {
  // Two tasks at u = 0.41 each: (1.41)² = 1.9881 <= 2 → holds.
  std::vector<rt::RtTask> ok{rt::make_rt_task("a", 4.1, 10.0),
                             rt::make_rt_task("b", 8.2, 20.0)};
  EXPECT_TRUE(oracle::hyperbolic_bound_holds(ok));
  // Two at 0.45: (1.45)² = 2.1025 > 2 → fails (though RM may still work).
  std::vector<rt::RtTask> no{rt::make_rt_task("a", 4.5, 10.0),
                             rt::make_rt_task("b", 9.0, 20.0)};
  EXPECT_FALSE(oracle::hyperbolic_bound_holds(no));
}

TEST(SecurityResponseTime, HandWorkedExample) {
  // Security task C = 3 below RT (2, 10) and hp security (1, 20):
  // R = 3 + ceil(R/10)·2 + ceil(R/20)·1 → R = 3+2+1 = 6 → 6 ✓.
  const auto task = rt::make_security_task("s", 3.0, 50.0, 500.0);
  const std::vector<rt::RtTiming> rts{{2.0, 10.0, 10.0}};
  const auto r = rt::security_response_time(task, 500.0, rts, {{1.0, 20.0}});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 6.0);
}

TEST(SecurityResponseTime, DeadlineExceededReturnsNullopt) {
  const auto task = rt::make_security_task("s", 3.0, 50.0, 500.0);
  // RT load 0.9: R = 3 + ceil(R/10)·9 → grows past any small deadline.
  EXPECT_FALSE(
      rt::security_response_time(task, 20.0, std::vector<rt::RtTiming>{{9.0, 10.0, 10.0}}, {})
                   .has_value());
}

// Property: the paper's linear Eq. (5) bound is conservative with respect to
// exact RTA — whenever the bound admits a period, exact RTA admits it too,
// and the exact response never exceeds the bound's implied demand.
class BoundVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundVsExact, LinearBoundIsConservative) {
  hydra::util::Xoshiro256 rng(GetParam());
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<rt::RtTiming> rts;
    const int nr = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < nr; ++i) {
      const double period = rng.uniform(10.0, 300.0);
      rts.push_back({rng.uniform(0.05, 0.2) * period, period, period});
    }
    std::vector<rt::PlacedSecurityTask> hp;
    const int nh = static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < nh; ++i) {
      const double period = rng.uniform(500.0, 3000.0);
      hp.push_back({rng.uniform(0.05, 0.25) * period, period});
    }
    const double t_des = rng.uniform(500.0, 2000.0);
    const auto task =
        rt::make_security_task("s", rng.uniform(0.05, 0.4) * t_des, t_des, 10.0 * t_des);

    const auto bound = rt::interference_bound(rts, hp);
    for (double period = t_des; period <= 10.0 * t_des; period *= 1.7) {
      if (rt::security_schedulable(task, period, bound)) {
        const auto exact = rt::security_response_time(task, period, rts, hp);
        ASSERT_TRUE(exact.has_value())
            << "linear bound admits period " << period << " but exact RTA rejects it";
        EXPECT_LE(*exact, task.wcet + bound.eval(period) + 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundVsExact, ::testing::Values(71, 72, 73, 74, 75, 76));

// Property sweep: response time computed by RTA satisfies its own fixed-point
// equation R = C + Σ ceil(R/T)·C.
class RtaFixedPoint : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtaFixedPoint, FixedPointHolds) {
  hydra::util::Xoshiro256 rng(GetParam());
  std::vector<rt::RtTask> hp;
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  double util = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double period = rng.uniform(10.0, 100.0);
    const double u = rng.uniform(0.02, 0.15);
    util += u;
    hp.push_back(rt::make_rt_task("hp" + std::to_string(i), u * period, period));
  }
  if (util >= 0.85) return;  // keep the low-priority task feasible
  const double period = rng.uniform(100.0, 1000.0);
  const auto task = rt::make_rt_task("x", 0.1 * period, period);
  const auto r = rt::response_time(rt::timing_of(task), rt::timings_of(hp));
  ASSERT_TRUE(r.has_value());
  double expected = task.wcet;
  for (const auto& h : hp) {
    expected += std::ceil(*r / h.period - 1e-9) * h.wcet;
  }
  EXPECT_NEAR(*r, expected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtaFixedPoint,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));
