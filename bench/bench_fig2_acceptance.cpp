// Fig. 2 reproduction: improvement in acceptance ratio (HYDRA vs SingleCore)
// as a function of total utilization, for M ∈ {2, 4, 8} cores.
//
// Paper setup (§IV-B): utilization swept from 0.025·M to 0.975·M in steps of
// 0.025·M (39 points), 250 random tasksets per point, NR ∈ [3M, 10M],
// NS ∈ [2M, 5M], tasksets failing Eq. (1) discarded and redrawn.
//
// Runs as ONE exp::Sweep across every (core count, utilization) point — a
// single work-stealing queue with deterministic per-instance seeds, so the
// row stream is byte-identical for any --jobs value — and reads every
// reported number off the exp::Aggregator cells (no hand-rolled acceptance
// counting).  --out captures the per-(instance, scheme) rows; --resume
// splices the completed cells of a previous (possibly interrupted) run.
//
// NOTE on the improvement formula: the paper prints
// (δ_SingleCore − δ_HYDRA)/δ_SingleCore × 100 %, which is negative whenever
// HYDRA accepts more — yet its Fig. 2 shows positive values on a 0–100 axis
// and the text says HYDRA outperforms.  We plot
// (δ_HYDRA − δ_SingleCore)/δ_HYDRA × 100 % (positive = HYDRA better, bounded
// by 100), the only reading consistent with the figure's 0–100 axis and with
// the text (stats::acceptance_improvement_percent).
//
// Multi-process fan-out: `--shard i/N` restricts the run to the cells the
// deterministic cell-key partition assigns to shard i; the N shard outputs
// (each stamped with a spec-fingerprint header) merged by hydra_merge are
// byte-identical to the unsharded run's --out, and the merged file resumes
// cleanly via --resume to re-print the tables without recomputing.
//
// Usage: bench_fig2_acceptance [--cores 2,4,8] [--tasksets 250] [--seed 7]
//                              [--schemes hydra,single-core]
//                              [--utilizations 0.05,0.1,...] [--csv]
//                              [sweep flags: --jobs --resume --shard --out
//                               --agg-out --gp-backend; see exp/sweep_cli.h]
//
// --gp-backend selects the GP solver backend every cell's period optimization
// runs through (docs/solver-catalog.md lists the registry).  It is a row-byte
// input: the fingerprint covers it, so shards and resumes must name the same
// backend, and the default ("" = scp/barrier) reproduces historical outputs.
#include <iostream>
#include <vector>

#include "exp/sweep_cli.h"
#include "gen/synthetic.h"
#include "io/table.h"
#include "stats/summary.h"
#include "util/cli.h"

namespace hexp = hydra::exp;
namespace gen = hydra::gen;
namespace io = hydra::io;

namespace {

int run(const hydra::util::CliParser& cli) {
  const auto cores = cli.get_int_list("cores", {2, 4, 8});
  const auto tasksets = cli.get_count("tasksets", 250);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const auto scheme_names = cli.get_string_list("schemes", {"hydra", "single-core"});
  const bool csv = cli.get_bool("csv", false);

  if (scheme_names.size() != 2) {
    std::cerr << "--schemes expects exactly two registered names "
                 "(candidate,baseline)\n";
    return 2;
  }

  // The whole figure is one sweep: cores × 39 utilization points × tasksets,
  // every cell drawn from (seed, point index, instance index) alone.
  hexp::SweepSpec spec;
  spec.schemes = scheme_names;
  spec.replications = tasksets;
  spec.base_seed = seed;
  for (const auto m : cores) {
    gen::SyntheticConfig config;
    config.num_cores = static_cast<std::size_t>(m);
    spec.add_utilization_grid(
        config, cli.get_double_list("utilizations",
                                    hexp::utilization_axis(config.num_cores)));
  }
  hexp::SweepCli sweep(cli, std::move(spec));

  io::print_banner(std::cout, "Fig. 2: improvement in acceptance ratio (" +
                                  scheme_names[0] + " vs " + scheme_names[1] + ")");
  std::cout << tasksets << " tasksets per utilization point.\n";
  sweep.run(std::cout);
  const auto cells = sweep.cells();

  for (const auto m : cores) {
    io::Table table({"total utilization", "accept " + scheme_names[0],
                     "accept " + scheme_names[1], "improvement (%)"});
    for (std::size_t p = 0; p < sweep.spec().points.size(); ++p) {
      const auto& point = sweep.spec().points[p];
      if (point.synthetic.num_cores != static_cast<std::size_t>(m)) continue;
      const auto* candidate = hexp::Aggregator::find(cells, p, scheme_names[0]);
      const auto* baseline = hexp::Aggregator::find(cells, p, scheme_names[1]);
      if (candidate == nullptr || baseline == nullptr) continue;
      const double improvement = hydra::stats::acceptance_improvement_percent(
          candidate->acceptance_ratio, baseline->acceptance_ratio);
      table.add_row({io::fmt(point.total_utilization, 3),
                     io::fmt(candidate->acceptance_ratio, 3),
                     io::fmt(baseline->acceptance_ratio, 3), io::fmt(improvement, 1)});
    }
    io::print_banner(std::cout, "M = " + std::to_string(m) + " cores");
    if (csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  }

  sweep.finish(std::cout);
  std::cout << "\nShape target: improvement ~0 at low utilization, rising "
               "toward 100% at high utilization (SingleCore runs out of RT "
               "capacity on M-1 cores and of security capacity on one core).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hexp::run_sweep_cli(argc, argv,
                             {"cores", "tasksets", "seed", "schemes", "csv", "utilizations"},
                             run);
}
