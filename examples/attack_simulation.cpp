// Attack-detection walkthrough: allocate the UAV case study, run the
// discrete-event schedule, inject synthetic attacks and print the detection
// latency distribution — a miniature of the paper's Fig. 1 experiment with
// the full trace inspection the bench omits.
//
// Usage: ./build/attack_simulation [--cores 4] [--trials 200]
//                                  [--horizon-s 120] [--seed 42]
#include <iostream>

#include "core/hydra.h"
#include "core/single_core.h"
#include "gen/uav.h"
#include "io/table.h"
#include "sim/attack.h"
#include "sim/engine.h"
#include "sim/render.h"
#include "stats/ecdf.h"
#include "stats/summary.h"
#include "util/cli.h"

namespace core = hydra::core;
namespace io = hydra::io;
namespace sim = hydra::sim;

namespace {

int run(const hydra::util::CliParser& cli) {
  const auto m = cli.get_count("cores", 4);
  const auto trials = cli.get_count("trials", 200);
  const auto horizon_s = static_cast<std::uint64_t>(cli.get_int("horizon-s", 120));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  const auto instance = hydra::gen::uav_case_study(m);
  const auto allocation = core::HydraAllocator().allocate(instance);
  if (!allocation.feasible) {
    std::cerr << "unschedulable: " << allocation.failure_reason << "\n";
    return 1;
  }

  // --- Schedule-level view: how busy is each core, do deadlines hold? ---
  const auto tasks = sim::build_sim_tasks(instance, allocation);
  sim::SimOptions sim_opts;
  sim_opts.horizon = horizon_s * 1000u * hydra::util::kTicksPerMilli;
  const auto trace = sim::simulate(tasks, sim_opts);

  io::print_banner(std::cout, "Schedule health (" + std::to_string(horizon_s) + " s horizon)");
  io::Table cores_table({"core", "busy (%)", "jobs", "deadline misses"});
  for (std::size_t c = 0; c < trace.core_busy.size(); ++c) {
    std::size_t jobs = 0, misses = 0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (tasks[t].core != c) continue;
      jobs += trace.jobs[t].size();
      for (const auto& j : trace.jobs[t]) misses += j.deadline_missed ? 1u : 0u;
    }
    cores_table.add_row(
        {std::to_string(c),
         io::fmt(100.0 * static_cast<double>(trace.core_busy[c]) /
                     static_cast<double>(sim_opts.horizon), 1),
         std::to_string(jobs), std::to_string(misses)});
  }
  cores_table.print(std::cout);

  // --- A short Gantt window to see the schedule with the naked eye. ---
  {
    sim::SimOptions gantt_opts;
    gantt_opts.horizon = 4000u * hydra::util::kTicksPerMilli;  // 4 s
    gantt_opts.record_segments = true;
    const auto short_trace = sim::simulate(tasks, gantt_opts);
    io::print_banner(std::cout, "first 4 seconds of the schedule");
    sim::GanttOptions gopts;
    gopts.width = 100;
    std::cout << sim::render_gantt(short_trace, tasks, gopts);
  }

  // --- Attack injection. ---
  sim::DetectionConfig config;
  config.horizon = sim_opts.horizon;
  config.trials = trials;
  config.seed = seed;
  const auto result = sim::measure_detection_times(instance, allocation, config);

  io::print_banner(std::cout, "Detection latency over " + std::to_string(trials) +
                                  " injected attacks (worst case across monitors)");
  const auto s = hydra::stats::summarize(result.detection_ms);
  const hydra::stats::EmpiricalCdf cdf(result.detection_ms);
  io::Table stats_table({"metric", "value (ms)"});
  stats_table.add_row({"min", io::fmt(s.min, 1)});
  stats_table.add_row({"mean", io::fmt(s.mean, 1)});
  stats_table.add_row({"median", io::fmt(cdf.quantile(0.5), 1)});
  stats_table.add_row({"p95", io::fmt(cdf.quantile(0.95), 1)});
  stats_table.add_row({"max", io::fmt(s.max, 1)});
  stats_table.print(std::cout);
  std::cout << "undetected attacks (horizon ran out): " << result.undetected << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hydra::util::run_cli(argc, argv, {"cores", "trials", "horizon-s", "seed"}, run);
}
