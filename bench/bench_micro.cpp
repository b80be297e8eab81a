// Micro-benchmarks (google-benchmark): the building blocks whose cost decides
// whether HYDRA-style design-space exploration is interactive — exact RTA,
// Randfixedsum draws, the Eq. (1) filter, the closed-form Eq. (7) period
// adaptation, full HYDRA and SingleCore allocations, the exhaustive optimal
// search, the discrete-event simulator, the detection bundle of one fig5 row,
// the scoring of its attacks and its metric hooks, a whole sweep batch, one
// point query, and the independent validation of one allocation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/contego.h"
#include "core/hydra.h"
#include "core/joint_period.h"
#include "core/mode_table.h"
#include "core/optimal.h"
#include "core/period_adaptation.h"
#include "core/single_core.h"
#include "core/validation.h"
#include "exp/metrics.h"
#include "exp/sweep.h"
#include "gen/randfixedsum.h"
#include "gen/synthetic.h"
#include "gen/uav.h"
#include "gp/solver_registry.h"
#include "rt/analysis.h"
#include "rt/partition.h"
#include "sim/attack.h"
#include "sim/engine.h"
#include "sim/mode_switch.h"
#include "sim/slack_profile.h"

namespace core = hydra::core;
namespace gen = hydra::gen;
namespace rt = hydra::rt;
namespace sim = hydra::sim;

namespace {

std::vector<rt::RtTask> random_rt_tasks(std::size_t n, double total_util,
                                        hydra::util::Xoshiro256& rng) {
  const auto utils = gen::randfixedsum(n, total_util, 1e-4, 0.9, rng);
  std::vector<rt::RtTask> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    const double period = rng.uniform(10.0, 1000.0);
    tasks.push_back(rt::make_rt_task("t" + std::to_string(i), utils[i] * period, period));
  }
  return tasks;
}

/// One row of a fig5 sweep: an instance and contego's design point on it.
struct Fig5Row {
  core::Instance instance;
  core::DesignPoint point;
};

/// The next draw of `rng` (M = 2, total utilization 1.0) that contego places
/// and whose WCETs all survive tick rounding.
Fig5Row next_fig5_row(hydra::util::Xoshiro256& rng) {
  gen::SyntheticConfig config;
  config.num_cores = 2;
  while (true) {
    const auto drawn = gen::generate_filtered_instance(config, 1.0, rng);
    if (!drawn.has_value()) continue;
    Fig5Row row{drawn->instance, core::evaluate_scheme(core::ContegoAllocator(), drawn->instance)};
    bool found = row.point.allocation.feasible;
    for (const auto& t : row.instance.rt_tasks) found = found && hydra::util::to_ticks(t.wcet) > 0;
    for (const auto& t : row.instance.security_tasks) {
      found = found && hydra::util::to_ticks(t.wcet) > 0;
    }
    if (found) return row;
  }
}

}  // namespace

static void BM_ResponseTimeAnalysis(benchmark::State& state) {
  hydra::util::Xoshiro256 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto tasks = rt::timings_of(random_rt_tasks(n, 0.6, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::core_schedulable_rm(tasks));
  }
}
BENCHMARK(BM_ResponseTimeAnalysis)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

static void BM_Randfixedsum(benchmark::State& state) {
  hydra::util::Xoshiro256 rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::randfixedsum(n, 0.4 * static_cast<double>(n), 0.0, 1.0, rng));
  }
}
BENCHMARK(BM_Randfixedsum)->Arg(10)->Arg(40)->Arg(80);

static void BM_PeriodAdaptationClosedForm(benchmark::State& state) {
  const auto task = rt::make_security_task("s", 50.0, 1000.0, 10000.0);
  rt::InterferenceBound bound;
  bound.const_part = 200.0;
  bound.util_part = 0.55;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::adapt_period(task, bound));
  }
}
BENCHMARK(BM_PeriodAdaptationClosedForm);

static void BM_HydraAllocateUav(benchmark::State& state) {
  const auto instance = gen::uav_case_study(static_cast<std::size_t>(state.range(0)));
  const core::HydraAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(instance));
  }
}
BENCHMARK(BM_HydraAllocateUav)->Arg(2)->Arg(4)->Arg(8);

static void BM_SingleCoreAllocateUav(benchmark::State& state) {
  const auto instance = gen::uav_case_study(static_cast<std::size_t>(state.range(0)));
  const core::SingleCoreAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(instance));
  }
}
BENCHMARK(BM_SingleCoreAllocateUav)->Arg(2)->Arg(4)->Arg(8);

static void BM_NecessaryCondition(benchmark::State& state) {
  // The generator's Eq. (1) filter on 64 unfiltered fig2 draws at M cores,
  // one per utilization point of the fig2 axis in turn, cycled.  With
  // `constrained` = 1 every deadline is cut to max(C, 0.9·T): L_a is then
  // positive and the capped deadline walk still runs.
  const auto m = static_cast<std::size_t>(state.range(0));
  const bool constrained = state.range(1) != 0;
  gen::SyntheticConfig config;
  config.num_cores = m;
  const auto axis = hydra::exp::utilization_axis(m);
  hydra::util::Xoshiro256 rng(12);
  std::vector<std::vector<rt::RtTask>> draws;
  for (std::size_t i = 0; draws.size() < 64; ++i) {
    if (auto drawn = gen::generate_instance(config, axis[i % axis.size()], rng)) {
      auto tasks = std::move(drawn->instance.rt_tasks);
      if (constrained) {
        for (auto& task : tasks) task.deadline = std::max(task.wcet, 0.9 * task.period);
      }
      draws.push_back(std::move(tasks));
    }
  }

  std::size_t next = 0;
  std::size_t passed = 0;
  for (auto _ : state) {
    passed += rt::dbf_necessary_condition(draws[next], m);
    next = (next + 1) % draws.size();
    benchmark::DoNotOptimize(passed);
  }
  state.counters["passed"] =
      static_cast<double>(passed) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_NecessaryCondition)
    ->ArgNames({"cores", "constrained"})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({4, 1});

static void BM_HydraAllocateSynthetic(benchmark::State& state) {
  // 64 seeded draws at U = M/2, cycled: more than the RT partition memo
  // holds, so every allocation partitions afresh.
  hydra::util::Xoshiro256 rng(4);
  gen::SyntheticConfig config;
  config.num_cores = static_cast<std::size_t>(state.range(0));
  std::vector<core::Instance> draws;
  while (draws.size() < 64) {
    if (auto drawn = gen::generate_filtered_instance(
            config, 0.5 * static_cast<double>(state.range(0)), rng)) {
      draws.push_back(std::move(drawn->instance));
    }
  }
  const core::HydraAllocator allocator;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(draws[next]));
    next = (next + 1) % draws.size();
  }
}
BENCHMARK(BM_HydraAllocateSynthetic)->Arg(2)->Arg(4)->Arg(8);

static void BM_JointPeriodScp(benchmark::State& state) {
  // One signomial SCP joint-period solve (condensation rounds over barrier
  // GP solves) for Arg security tasks sharing one core — the inner kernel of
  // the exhaustive optimal search.
  hydra::util::Xoshiro256 rng(6);
  core::Instance instance;
  instance.num_cores = 1;
  instance.rt_tasks = random_rt_tasks(3, 0.3, rng);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const double t_des = rng.uniform(1000.0, 3000.0);
    instance.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.05, 0.15) * t_des, t_des, 10.0 * t_des));
  }
  rt::Partition partition;
  partition.num_cores = 1;
  partition.core_of.assign(instance.rt_tasks.size(), 0);
  const std::vector<std::size_t> core_of(instance.security_tasks.size(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimize_joint_periods(instance, partition, core_of));
  }
}
BENCHMARK(BM_JointPeriodScp)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

static void BM_GpSolveBackend(benchmark::State& state, const std::string& backend) {
  // One plain-GP solve of the joint-period program (4 security tasks, one
  // loaded core) through a SolverRegistry backend, constructed by name as
  // the sweep constructs it.
  hydra::util::Xoshiro256 rng(6);
  core::Instance instance;
  instance.num_cores = 1;
  instance.rt_tasks = random_rt_tasks(3, 0.3, rng);
  for (std::int64_t i = 0; i < 4; ++i) {
    const double t_des = rng.uniform(1000.0, 3000.0);
    instance.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.05, 0.15) * t_des, t_des, 10.0 * t_des));
  }
  rt::Partition partition;
  partition.num_cores = 1;
  partition.core_of.assign(instance.rt_tasks.size(), 0);
  const std::vector<std::size_t> core_of(instance.security_tasks.size(), 0);
  const hydra::gp::GpProblem problem =
      core::make_joint_period_gp(instance, partition, core_of);
  const auto solver = hydra::gp::SolverRegistry::global().make(backend);
  for (auto _ : state) {
    const auto result = solver->solve(problem);
    if (!result.ok()) {
      state.SkipWithError(("backend " + backend + " failed: " + result.message).c_str());
      return;
    }
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK_CAPTURE(BM_GpSolveBackend, scp_barrier, std::string("scp/barrier"));

static void BM_OptimalExhaustive(benchmark::State& state) {
  // M = 2, NS = range: cost doubles per extra task (2^NS joint solves).
  hydra::util::Xoshiro256 rng(5);
  core::Instance instance;
  instance.num_cores = 2;
  instance.rt_tasks = random_rt_tasks(4, 0.5, rng);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const double t_des = rng.uniform(1000.0, 3000.0);
    instance.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.1, 0.3) * t_des, t_des, 10.0 * t_des));
  }
  const core::OptimalAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(instance));
  }
}
BENCHMARK(BM_OptimalExhaustive)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

static void BM_SimulateUavSecond(benchmark::State& state) {
  // One simulated second of the M=4 UAV system (12 tasks).
  const auto instance = gen::uav_case_study(4);
  const auto allocation = core::HydraAllocator().allocate(instance);
  const auto tasks = sim::build_sim_tasks(instance, allocation);
  sim::SimOptions opts;
  opts.horizon = 1000u * hydra::util::kTicksPerMilli;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(tasks, opts));
  }
}
BENCHMARK(BM_SimulateUavSecond)->Unit(benchmark::kMicrosecond);

static void BM_DetectionRow(benchmark::State& state) {
  // The six detection measurements of one fig5 row (M = 2, contego, total
  // utilization 1.0, 100 s horizon, 3 levels): the adaptive run under three
  // controller policies plus the static, minimum-mode and global baselines.
  // One RT slack profile per iteration, shared by the six runs as
  // exp::adaptive_detection_metrics shares it across a row.
  hydra::util::Xoshiro256 rng(5);
  const Fig5Row row = next_fig5_row(rng);
  const core::Instance& instance = row.instance;
  const core::Allocation& allocation = row.point.allocation;
  const core::Allocation min_mode = core::min_mode_allocation(instance, allocation);
  sim::DetectionConfig detection;
  detection.horizon = 100u * 1000u * hydra::util::kTicksPerMilli;
  detection.trials = 120;
  sim::ModeControllerConfig controller;
  controller.num_levels = 3;
  for (auto _ : state) {
    sim::RtSlackProfileCache profiles;
    for (const char* policy : {"hysteresis", "boost", "never-switch"}) {
      controller.policy = policy;
      benchmark::DoNotOptimize(sim::measure_detection_times_adaptive(
          instance, allocation, detection, controller, &profiles));
    }
    benchmark::DoNotOptimize(
        sim::measure_detection_times(instance, allocation, detection, &profiles));
    benchmark::DoNotOptimize(
        sim::measure_detection_times(instance, min_mode, detection, &profiles));
    benchmark::DoNotOptimize(
        sim::measure_detection_times_global(instance, allocation, detection, &profiles));
  }
}
BENCHMARK(BM_DetectionRow)->Unit(benchmark::kMillisecond);

static void BM_DetectPlannedAttacks(benchmark::State& state) {
  // Scoring one fig5 row's 120 planned attacks against its static schedule
  // (M = 2, contego, total utilization 1.0, 100 s horizon), both scopes: the
  // pass each detection run of the row ends with.
  hydra::util::Xoshiro256 rng(5);
  const Fig5Row row = next_fig5_row(rng);
  const std::size_t nr = row.instance.rt_tasks.size();
  const std::size_t ns = row.instance.security_tasks.size();
  sim::DetectionConfig detection;
  detection.horizon = 100u * 1000u * hydra::util::kTicksPerMilli;
  detection.trials = 120;
  detection.scope = static_cast<sim::AttackScope>(state.range(0));
  const auto tasks = sim::build_sim_tasks(row.instance, row.point.allocation);
  sim::ModeSwitchOptions options;
  options.horizon = detection.horizon;
  options.controller.policy = sim::kInertControllerPolicy;
  sim::RtSlackProfileCache profiles;
  // The band engine records the monitors' jobs only, as the row's runs do.
  const sim::Trace trace =
      sim::simulate_mode_band(sim::fixed_rate_tasks(tasks), nr, options, profiles).trace;
  const sim::AttackPlan plan = sim::plan_attacks(tasks, nr, ns, detection);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::detect_planned_attacks(trace, nr, ns, detection, plan));
  }
  state.counters["monitor_jobs"] = static_cast<double>(trace.total_jobs());
}
BENCHMARK(BM_DetectPlannedAttacks)
    ->Arg(static_cast<int>(sim::AttackScope::kSingleTask))
    ->Arg(static_cast<int>(sim::AttackScope::kAllTasks))
    ->Unit(benchmark::kMicrosecond);

static void BM_AdaptiveRowHooks(benchmark::State& state) {
  // One fig5 row's 21 metric hooks through exp::adaptive_detection_metrics,
  // the path sweeps take: the detection runs of BM_DetectionRow as three
  // policy families (hysteresis with the three baselines, boost,
  // never-switch), plus the per-row bundle memo in front of them.  Two rows
  // alternate, so every iteration builds one RT profile and misses the memo
  // once per family, as a sweep's consecutive rows do; the other 18 hooks
  // are memo hits.
  hydra::util::Xoshiro256 rng(5);
  const std::array<Fig5Row, 2> rows = {next_fig5_row(rng), next_fig5_row(rng)};
  hydra::exp::AdaptiveMetricsConfig base;
  base.detection.horizon = 100u * 1000u * hydra::util::kTicksPerMilli;
  base.detection.trials = 120;
  base.controller.num_levels = 3;
  std::vector<hydra::exp::RowMetric> hooks;
  bool first = true;
  for (const char* policy : {"hysteresis", "boost", "never-switch"}) {
    hydra::exp::AdaptiveMetricsConfig family = base;
    family.controller.policy = policy;
    family.name_suffix = std::string("/") + policy;
    family.include_static = family.include_min_mode = family.include_global = first;
    first = false;
    for (auto& hook : hydra::exp::adaptive_detection_metrics(family)) {
      hooks.push_back(std::move(hook));
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const Fig5Row& row = rows[next++ % rows.size()];
    for (const auto& hook : hooks) {
      benchmark::DoNotOptimize(hook.compute(row.instance, row.point));
    }
  }
  state.counters["hooks"] = static_cast<double>(hooks.size());
}
BENCHMARK(BM_AdaptiveRowHooks)->Unit(benchmark::kMillisecond);

static void BM_SweepBatch(benchmark::State& state) {
  // One synthetic point of 100 instances (M = 4, mid utilization) through
  // exp::Sweep, the path every figure bench runs; Arg = worker threads.  Rows
  // are identical for every thread count (tested); this benchmark measures
  // the wall-clock scaling, so the jobs=8 row against jobs=1 is the sweep's
  // parallel speedup.
  hydra::exp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core"};
  gen::SyntheticConfig config;
  config.num_cores = 4;
  spec.add_utilization_grid(config, {2.0});
  spec.replications = 100;
  spec.base_seed = 9;
  spec.jobs = static_cast<std::size_t>(state.range(0));
  const std::size_t rows_per_run = spec.replications * spec.schemes.size();
  const hydra::exp::Sweep sweep(std::move(spec));

  std::size_t feasible = 0;
  for (auto _ : state) {
    const auto summary = sweep.run();
    feasible += summary.feasible;
    benchmark::DoNotOptimize(feasible);
  }
  state.counters["feasible"] =
      static_cast<double>(feasible) / static_cast<double>(state.iterations());
  // One item = one (instance, scheme) row, so items_per_second is the
  // sweep's cell throughput — the unit hydra_bench_diff tracks across
  // thread counts and baselines.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rows_per_run));
}
BENCHMARK(BM_SweepBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void BM_PointQuery(benchmark::State& state) {
  // One query of a point-query client: a one-point exp::Sweep of hydra,
  // single-core and contego on a seeded M = 4, U = 2.0 draw, from the
  // Sweep's construction to the return of run(), so per-sweep fixed costs
  // show next to the three allocations.  The draws are made up front and
  // cycled; there are more of them than the RT partition memo holds, so no
  // query starts with its own partitions cached.
  gen::SyntheticConfig config;
  config.num_cores = 4;
  hydra::util::Xoshiro256 rng(11);
  std::vector<core::Instance> draws;
  while (draws.size() < 64) {
    if (auto drawn = gen::generate_filtered_instance(config, 2.0, rng)) {
      draws.push_back(std::move(drawn->instance));
    }
  }

  std::size_t next = 0;
  std::size_t feasible = 0;
  for (auto _ : state) {
    hydra::exp::SweepSpec spec;
    spec.schemes = {"hydra", "single-core", "contego"};
    hydra::exp::SweepPoint point;
    point.instance = draws[next];
    next = (next + 1) % draws.size();
    spec.points.push_back(std::move(point));
    const hydra::exp::Sweep sweep(std::move(spec));
    feasible += sweep.run().feasible;
    benchmark::DoNotOptimize(feasible);
  }
  state.counters["feasible"] =
      static_cast<double>(feasible) / static_cast<double>(state.iterations());
  // One item = one query.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PointQuery)->Unit(benchmark::kMicrosecond);

static void BM_ValidateAllocation(benchmark::State& state) {
  // The independent re-check of one design point: 192 feasible hydra,
  // single-core and contego allocations of seeded M = 4, U = 2.0 draws, each
  // validated under its scheme's own contract, cycled.
  gen::SyntheticConfig config;
  config.num_cores = 4;
  hydra::util::Xoshiro256 rng(13);
  const core::HydraAllocator hydra_scheme;
  const core::SingleCoreAllocator single_core;
  const core::ContegoAllocator contego;
  const std::array<const core::Allocator*, 3> schemes{&hydra_scheme, &single_core, &contego};
  struct Case {
    core::Instance instance;
    core::Allocation allocation;
    const core::Allocator* scheme;
  };
  std::vector<Case> cases;
  while (cases.size() < 3 * 64) {
    auto drawn = gen::generate_filtered_instance(config, 2.0, rng);
    if (!drawn.has_value()) continue;
    for (const core::Allocator* scheme : schemes) {
      auto allocation = scheme->allocate(drawn->instance);
      if (allocation.feasible) cases.push_back({drawn->instance, std::move(allocation), scheme});
    }
  }

  std::size_t next = 0;
  std::size_t valid = 0;
  for (auto _ : state) {
    const Case& c = cases[next];
    next = (next + 1) % cases.size();
    valid += core::validate_allocation(c.instance, c.allocation, c.scheme->priority_order(),
                                       c.scheme->schedule_test())
                 .valid;
    benchmark::DoNotOptimize(valid);
  }
  state.counters["valid"] =
      static_cast<double>(valid) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ValidateAllocation)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
