// Fig. 5 (extension): detection latency UNDER runtime adaptation.
//
// The adaptive allocators commit two feasible period vectors per instance —
// minimum mode (every monitor at Tmax) and the adapted mode their slack-aware
// tightening produced.  This bench compares, across the utilization grid,
// what an attacker actually experiences under four runtime policies:
//
//   * min-mode   — the always-feasible fallback, frozen at Tmax
//                  ("min_mode_mean_detection_ms"),
//   * adaptive   — the mode-switching controller live: monitors start in
//                  minimum mode and tighten at job boundaries when the
//                  sliding-window idle slack allows (sim/mode_switch.h),
//   * static     — the design-time bound: the committed (adapted) periods
//                  frozen ("static_mean_detection_ms"),
//   * global     — the §V migration bound: same periods, security jobs run in
//                  any core's idle slack ("global_mean_detection_ms").
//
// Everything rides one exp::Sweep with exp::adaptive_detection_metrics
// attached, so every cell reports detection means with 95% CIs plus the
// controller's behaviour — committed switch counts, the adapted-mode
// residency fraction, and the decisions the dwell/budget machinery denied —
// and the whole run is byte-identical for any --jobs.
//
// `--policies` runs several registered controller policies
// (sim::ControllerRegistry; see docs/controller-catalog.md) side by side:
// each policy contributes its own adaptive metric family (names suffixed
// "/<policy>" when more than one is selected) over the SAME instances and
// attacks, so the table compares e.g. hysteresis vs boost vs never-switch
// row for row.
//
// Expected shape: min-mode >= adaptive >= static >= global on mean latency;
// adapted residency falls (and switches rise) as utilization grows and slack
// evaporates.
//
// Usage: bench_fig5_runtime_adaptation [--tasksets 12] [--seed 23] [--cores 2]
//            [--schemes contego] [--utilizations 0.6,1.0,1.4]
//            [--policies hysteresis,boost,never-switch] [--levels 2]
//            [--trials 120] [--horizon-s 200] [--det-seed 1]
//            [--window-ms 0] [--tighten 0.25] [--relax 0.05]
//            [--dwell-ms 0] [--switch-budget 0] [--boost-window-ms 0]
//            [--csv] [sweep flags: --jobs --resume --shard --out --agg-out;
//             see exp/sweep_cli.h]
//
// `--shard i/N` fans the grid out across N processes (deterministic cell-key
// partition; see exp/merge.h): merge the shard outputs with hydra_merge and
// the result is byte-identical to the unsharded run.
#include <iostream>
#include <iterator>
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

/// Metric mean + 95% CI as "x [lo, hi]", or "-" when the cell has no samples.
std::string metric_ci(const hexp::CellStats& cell, const std::string& name, int digits) {
  const auto it = cell.metrics.find(name);
  if (it == cell.metrics.end() || it->second.count == 0) return "-";
  return io::fmt(it->second.mean, digits) + " [" + io::fmt(it->second.ci95_lo, digits) +
         ", " + io::fmt(it->second.ci95_hi, digits) + "]";
}

int run(const hydra::util::CliParser& cli) {
  const auto tasksets = cli.get_count("tasksets", 12);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 23));
  const auto cores = cli.get_count("cores", 2);
  const auto scheme_names = cli.get_string_list("schemes", {"contego"});
  const bool csv = cli.get_bool("csv", false);

  hexp::AdaptiveMetricsConfig metrics_config;
  metrics_config.detection.horizon = static_cast<std::uint64_t>(
      cli.get_int("horizon-s", 200)) * 1000u * hydra::util::kTicksPerMilli;
  metrics_config.detection.trials = cli.get_count("trials", 120);
  metrics_config.detection.seed = static_cast<std::uint64_t>(cli.get_int("det-seed", 1));
  metrics_config.controller.slack_window =
      static_cast<std::uint64_t>(cli.get_int("window-ms", 0)) * hydra::util::kTicksPerMilli;
  metrics_config.controller.tighten_threshold = cli.get_double("tighten", 0.25);
  metrics_config.controller.relax_threshold = cli.get_double("relax", 0.05);
  metrics_config.controller.min_dwell =
      static_cast<std::uint64_t>(cli.get_int("dwell-ms", 0)) * hydra::util::kTicksPerMilli;
  if (const auto budget = cli.get_count("switch-budget", 0); budget > 0) {
    metrics_config.controller.switch_budget = budget;
  }
  metrics_config.controller.num_levels = cli.get_count("levels", 2);
  metrics_config.controller.boost_window =
      static_cast<std::uint64_t>(cli.get_int("boost-window-ms", 0)) *
      hydra::util::kTicksPerMilli;
  metrics_config.include_global = true;

  const auto policy_names = cli.get_string_list("policies", {"hysteresis"});
  // One policy keeps the historical unsuffixed metric names (and stamps the
  // policy into the sweep fingerprint); several run side by side as
  // "/<policy>"-suffixed families over the same instances and attacks, with
  // the policy-free baselines attached to the first family only.
  const bool multi_policy = policy_names.size() > 1;
  const auto family_suffix = [&](const std::string& policy) {
    return multi_policy ? "/" + policy : std::string();
  };

  gen::SyntheticConfig config;
  config.num_cores = cores;

  // Default axis: low / medium / high total utilization (× M) — enough to see
  // the residency collapse without the full 39-point Fig.-2 grid.
  const double m = static_cast<double>(cores);
  const auto utilizations =
      cli.get_double_list("utilizations", {0.3 * m, 0.5 * m, 0.7 * m});

  hexp::SweepSpec spec;
  spec.schemes = scheme_names;
  spec.replications = tasksets;
  spec.base_seed = seed;
  for (std::size_t i = 0; i < policy_names.size(); ++i) {
    hexp::AdaptiveMetricsConfig family = metrics_config;
    family.controller.policy = policy_names[i];
    family.name_suffix = family_suffix(policy_names[i]);
    family.include_static = i == 0;
    family.include_min_mode = i == 0;
    family.include_global = i == 0;
    auto family_metrics = hexp::adaptive_detection_metrics(family);
    spec.metrics.insert(spec.metrics.end(),
                        std::make_move_iterator(family_metrics.begin()),
                        std::make_move_iterator(family_metrics.end()));
  }
  spec.add_utilization_grid(config, utilizations);
  hexp::SweepCli sweep(cli, std::move(spec));

  io::print_banner(std::cout,
                   "Fig. 5: detection latency under runtime adaptation (M = " +
                       std::to_string(cores) + ")");
  std::cout << tasksets << " tasksets per utilization point; "
            << metrics_config.detection.trials << " attacks per policy; horizon "
            << cli.get_int("horizon-s", 200) << " s.\n";
  sweep.run(std::cout);
  const auto cells = sweep.cells();

  io::Table table({"total utilization", "scheme", "policy", "acceptance",
                   "min-mode mean (ms)", "adaptive mean (ms) [CI]",
                   "adaptive p95 (ms)", "static mean (ms)", "global mean (ms)",
                   "adapted residency", "switches", "denied dwell/budget"});
  for (std::size_t p = 0; p < sweep.spec().points.size(); ++p) {
    const auto& point = sweep.spec().points[p];
    for (const auto& name : scheme_names) {
      const auto* cell = hexp::Aggregator::find(cells, p, name);
      if (cell == nullptr || cell->total == 0) continue;
      const auto mean_of = [&](const std::string& metric) -> std::string {
        const auto it = cell->metrics.find(metric);
        if (it == cell->metrics.end() || it->second.count == 0) return "-";
        return io::fmt(it->second.mean, 1);
      };
      for (const auto& policy : policy_names) {
        const std::string suffix = family_suffix(policy);
        table.add_row({io::fmt(point.total_utilization, 3), name, policy,
                       io::fmt(cell->acceptance_ratio, 3),
                       mean_of("min_mode_mean_detection_ms"),
                       metric_ci(*cell, "adaptive_mean_detection_ms" + suffix, 1),
                       mean_of("adaptive_p95_detection_ms" + suffix),
                       mean_of("static_mean_detection_ms"),
                       mean_of("global_mean_detection_ms"),
                       metric_ci(*cell, "adapted_residency" + suffix, 3),
                       mean_of("adaptive_switches" + suffix),
                       mean_of("adaptive_denied_dwell" + suffix) + " / " +
                           mean_of("adaptive_denied_budget" + suffix)});
      }
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  sweep.finish(std::cout);
  std::cout << "\nShape target: min-mode >= adaptive >= static >= global on mean "
               "detection latency; adapted residency shrinks as utilization grows "
               "and the controller finds less slack to spend.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hexp::run_sweep_cli(
      argc, argv,
      {"tasksets", "seed", "cores", "schemes", "csv", "horizon-s", "trials", "det-seed",
       "window-ms", "tighten", "relax", "dwell-ms", "switch-budget", "levels", "boost-window-ms",
       "policies", "utilizations"},
      run);
}
