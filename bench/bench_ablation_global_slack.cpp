// Ablation: static partitioning (HYDRA) vs global slack scheduling of the
// security jobs (paper §V future work).
//
// Both runs use HYDRA's periods; the global run lets security jobs migrate to
// any core with idle slack (job-level migration, zero migration cost — the
// optimistic bound on what migration can buy).  Reported per core count:
// mean and p95 detection time of each scheduler, and the global run's
// improvement over the static one.
//
// Usage: bench_ablation_global_slack [--cores 2,4,8] [--trials 300]
//                                    [--horizon-s 300] [--seed 29] [--csv]
#include <iostream>

#include "core/hydra.h"
#include "gen/uav.h"
#include "io/table.h"
#include "sim/attack.h"
#include "stats/ecdf.h"
#include "stats/summary.h"
#include "util/cli.h"

namespace core = hydra::core;
namespace io = hydra::io;
namespace sim = hydra::sim;

namespace {

int run(const hydra::util::CliParser& cli) {
  const auto cores = cli.get_int_list("cores", {2, 4, 8});
  const auto trials = cli.get_count("trials", 300);
  const auto horizon_s = static_cast<std::uint64_t>(cli.get_int("horizon-s", 300));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 29));
  const bool csv = cli.get_bool("csv", false);

  io::print_banner(std::cout,
                   "Ablation: static HYDRA placement vs global slack migration (UAV case study)");
  io::Table table({"cores", "scheduler", "mean detection (ms)", "p95 (ms)",
                   "improvement vs static"});

  for (const auto m : cores) {
    const auto instance = hydra::gen::uav_case_study(static_cast<std::size_t>(m));
    const auto allocation = core::HydraAllocator().allocate(instance);
    if (!allocation.feasible) {
      std::cout << "M = " << m << ": infeasible (" << allocation.failure_reason << ")\n";
      continue;
    }
    sim::DetectionConfig config;
    config.horizon = horizon_s * 1000u * hydra::util::kTicksPerMilli;
    config.trials = trials;
    config.seed = seed;

    const auto fixed = sim::measure_detection_times(instance, allocation, config);
    const auto global = sim::measure_detection_times_global(instance, allocation, config);
    const double fixed_mean = hydra::stats::summarize(fixed.detection_ms).mean;
    const double global_mean = hydra::stats::summarize(global.detection_ms).mean;
    const hydra::stats::EmpiricalCdf fixed_cdf(fixed.detection_ms);
    const hydra::stats::EmpiricalCdf global_cdf(global.detection_ms);

    table.add_row({std::to_string(m), "static (HYDRA)", io::fmt(fixed_mean, 1),
                   io::fmt(fixed_cdf.quantile(0.95), 1), "-"});
    table.add_row({std::to_string(m), "global slack", io::fmt(global_mean, 1),
                   io::fmt(global_cdf.quantile(0.95), 1),
                   io::fmt_percent((fixed_mean - global_mean) / fixed_mean * 100.0, 2)});
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nReading: migration can only help with identical periods; "
               "the margin bounds what a runtime (rather than design-time) "
               "mechanism could add over HYDRA's static placement.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hydra::util::run_cli(argc, argv, {"cores", "trials", "horizon-s", "seed", "csv"}, run);
}
