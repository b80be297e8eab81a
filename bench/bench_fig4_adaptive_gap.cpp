// Fig. 4 (extension): the adaptive-allocation gap — how close the Contego-
// style adaptive scheme, the period-adaptation-only baseline and the
// utilization-aware heuristics come to HYDRA (and, on small instances, the
// exhaustive optimal) as total utilization grows.
//
// One exp::Sweep over the utilization axis, every scheme on every instance;
// the exp::Aggregator reports per-(utilization, scheme) acceptance ratios
// (with binomial 95 % CIs), normalized-tightness distributions (with mean
// CIs), the per-instance tightness gap against the reference scheme joined
// over commonly accepted instances (Fig.-3 protocol, now with CIs), and the
// period-mode counts (best/min/adapted) from exp::period_mode_metrics —
// the quantity that shows HOW MUCH adaptation each family actually performs.
//
// Expected shape: hydra ≥ contego ≥ period-adapt on tightness (placement
// freedom buys more than period freedom alone); the util/* heuristics track
// hydra's acceptance closely at low/medium utilization and fall away at high
// utilization, where tightness-driven placement matters.
//
// Usage: bench_fig4_adaptive_gap [--tasksets 40] [--seed 17] [--cores 2]
//            [--schemes contego,period-adapt,util/worst-fit,hydra,optimal]
//            [--reference optimal] [--utilizations 0.4,0.8,...] [--csv]
//            [sweep flags: --jobs --resume --shard --out --agg-out;
//             see exp/sweep_cli.h]
#include <iostream>
#include <vector>

#include "exp/metrics.h"
#include "exp/sweep_cli.h"
#include "gen/synthetic.h"
#include "io/table.h"
#include "util/cli.h"

namespace hexp = hydra::exp;
namespace gen = hydra::gen;
namespace io = hydra::io;

namespace {

int run(const hydra::util::CliParser& cli) {
  const auto tasksets = cli.get_count("tasksets", 40);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 17));
  const auto cores = cli.get_count("cores", 2);
  const auto scheme_names = cli.get_string_list(
      "schemes", {"contego", "period-adapt", "util/worst-fit", "hydra", "optimal"});
  const bool csv = cli.get_bool("csv", false);

  // Reference for the gap join: --reference, else "optimal" when selected,
  // else the last scheme in the list.
  std::string reference = cli.get_string("reference", "");
  if (reference.empty()) {
    reference = scheme_names.back();
    for (const auto& name : scheme_names) {
      if (name == "optimal") reference = name;
    }
  }

  gen::SyntheticConfig config;
  config.num_cores = cores;
  if (cores == 2) {
    // Keep NS small enough that the exhaustive reference stays inside the
    // sweep budget on most instances (the Fig.-3 convention).
    config.min_sec_per_core = 1;
    config.max_sec_per_core = 3;
  }

  hexp::SweepSpec spec;
  spec.schemes = scheme_names;
  spec.replications = tasksets;
  spec.base_seed = seed;
  spec.metrics = hexp::period_mode_metrics();
  spec.add_utilization_grid(
      config, cli.get_double_list("utilizations", hexp::utilization_axis(cores)));
  hexp::AggregateOptions agg_options;
  agg_options.reference_scheme = reference;
  hexp::SweepCli sweep(cli, std::move(spec), agg_options);

  io::print_banner(std::cout, "Fig. 4: adaptive & period-adaptation families vs " +
                                  reference + " (M = " + std::to_string(cores) + ")");
  std::cout << tasksets << " tasksets per utilization point; reference scheme: "
            << reference << ".\n";
  sweep.run(std::cout);
  const auto cells = sweep.cells();

  io::Table table({"total utilization", "scheme", "acceptance", "accept 95% CI",
                   "tightness mean", "gap vs ref (%)", "gap 95% CI",
                   "mean monitors below Tmax"});
  for (std::size_t p = 0; p < sweep.spec().points.size(); ++p) {
    const auto& point = sweep.spec().points[p];
    for (const auto& name : scheme_names) {
      const auto* cell = hexp::Aggregator::find(cells, p, name);
      if (cell == nullptr || cell->total == 0) continue;
      std::string gap = "-", gap_ci = "-";
      if (name != reference && cell->gap_samples > 0) {
        gap = io::fmt(cell->gap_mean_percent, 2);
        gap_ci = "[" + io::fmt(cell->gap_ci95_lo_percent, 2) + ", " +
                 io::fmt(cell->gap_ci95_hi_percent, 2) + "]";
      }
      // Monitors the scheme moved off the Tmax floor (best-mode + strictly
      // in-between): how much period freedom the family actually exercised.
      std::string tightened = "-";
      const auto adapted_dist = cell->metrics.find("adapted_tasks");
      const auto best_dist = cell->metrics.find("best_mode_tasks");
      if (adapted_dist != cell->metrics.end() && adapted_dist->second.count > 0 &&
          best_dist != cell->metrics.end()) {
        tightened = io::fmt(adapted_dist->second.mean + best_dist->second.mean, 2);
      }
      table.add_row({io::fmt(point.total_utilization, 3), name,
                     io::fmt(cell->acceptance_ratio, 3),
                     "[" + io::fmt(cell->acceptance_ci95_lo, 3) + ", " +
                         io::fmt(cell->acceptance_ci95_hi, 3) + "]",
                     cell->accepted > 0 ? io::fmt(cell->tightness.mean, 3) : "-", gap,
                     gap_ci, tightened});
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  sweep.finish(std::cout);
  std::cout << "\nShape target: hydra >= contego >= period-adapt on tightness; the "
               "gap to the reference widens with utilization while the below-Tmax "
               "monitor count shows how much period freedom each family exercises.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hexp::run_sweep_cli(
      argc, argv, {"tasksets", "seed", "cores", "schemes", "csv", "reference", "utilizations"},
      run);
}
