// Ablation: tightness-tie resolution in Algorithm 1 (line 11 leaves ties
// unspecified).  At low utilization every core offers η = 1, so the tie rule
// decides the whole placement: least-loaded spreads monitors (parallel
// scanning, shorter queues), lowest-index piles them onto one core (a de
// facto SingleCore).  The effect shows up in detection latency, not in
// tightness — which is exactly why Fig. 1 needs a simulator.
//
// Usage: bench_ablation_tiebreak [--cores 4,8] [--trials 300] [--seed 17] [--csv]
#include <iostream>
#include <set>

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
  const auto cores = cli.get_int_list("cores", {4, 8});
  const auto trials = cli.get_count("trials", 300);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 17));
  const bool csv = cli.get_bool("csv", false);

  io::print_banner(std::cout, "Ablation: eta-tie break rule (UAV case study)");
  io::Table table({"cores", "tie-break", "cumulative tightness", "cores used",
                   "mean detection (ms)"});

  for (const auto m : cores) {
    const auto instance = hydra::gen::uav_case_study(static_cast<std::size_t>(m));
    for (const auto tie : {core::TieBreak::kLeastLoaded, core::TieBreak::kLowestIndex}) {
      core::HydraOptions opts;
      opts.tie_break = tie;
      const auto allocation = core::HydraAllocator(opts).allocate(instance);
      const std::string name =
          tie == core::TieBreak::kLeastLoaded ? "least-loaded (default)" : "lowest-index";
      if (!allocation.feasible) {
        table.add_row({std::to_string(m), name, "infeasible", "-", "-"});
        continue;
      }
      std::set<std::size_t> used;
      for (const auto& p : allocation.placements) used.insert(p.core);

      sim::DetectionConfig config;
      config.horizon = 300u * 1000u * hydra::util::kTicksPerMilli;
      config.trials = trials;
      config.seed = seed;
      const auto res = sim::measure_detection_times(instance, allocation, config);
      table.add_row({std::to_string(m), name,
                     io::fmt(allocation.cumulative_tightness(instance.security_tasks), 3),
                     std::to_string(used.size()),
                     io::fmt(hydra::stats::summarize(res.detection_ms).mean, 1)});
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nReading: identical tightness, different detection latency — "
               "spreading monitors pays off even when the analysis metric "
               "cannot see it.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hydra::util::run_cli(argc, argv, {"cores", "trials", "seed", "csv"}, run);
}
