// Fig. 3 reproduction: difference in cumulative tightness between HYDRA and
// the optimal (exhaustive) assignment, M = 2, NS ∈ [2, 6].
//
// Runs as one exp::Sweep over the utilization axis with the reference scheme
// configured on the exp::Aggregator: the gap Δη = (η_REF − η_CAND)/η_REF ×
// 100 % is joined per instance over the instances BOTH schemes accepted —
// the paper's "schedulable task sets" protocol — and the mean/max columns
// come straight off the aggregated cells.  Both schemes partition the RT
// tasks best-fit over all M cores, so they run on identical footing.  The
// paper reports ~0 gap at low/medium utilization, growing but bounded by
// ≈22 % at high utilization.
//
// Usage: bench_fig3_optimal_gap [--tasksets 50] [--seed 11]
//                               [--schemes hydra,optimal]
//                               [--utilizations 0.05,0.1,...] [--csv]
//                               [sweep flags: --jobs --resume --shard --out
//                                --agg-out; see exp/sweep_cli.h]
//        (the paper's Fig. 3 uses M = 2; the exhaustive comparator is
//         exponential, so per-point taskset counts are smaller than Fig. 2's)
#include <iostream>
#include <vector>

#include "exp/sweep_cli.h"
#include "gen/synthetic.h"
#include "io/table.h"
#include "util/cli.h"

namespace hexp = hydra::exp;
namespace gen = hydra::gen;
namespace io = hydra::io;

namespace {

int run(const hydra::util::CliParser& cli) {
  const auto tasksets = cli.get_count("tasksets", 50);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));
  const auto scheme_names = cli.get_string_list("schemes", {"hydra", "optimal"});
  const bool csv = cli.get_bool("csv", false);

  if (scheme_names.size() != 2) {
    std::cerr << "--schemes expects exactly two registered names "
                 "(candidate,reference)\n";
    return 2;
  }

  gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;  // NS ∈ [2, 6] as in the paper's Fig. 3
  config.max_sec_per_core = 3;

  hexp::SweepSpec spec;
  spec.schemes = scheme_names;
  spec.replications = tasksets;
  spec.base_seed = seed;
  spec.add_utilization_grid(
      config, cli.get_double_list("utilizations", hexp::utilization_axis(2)));
  hexp::AggregateOptions agg_options;
  agg_options.reference_scheme = scheme_names[1];
  hexp::SweepCli sweep(cli, std::move(spec), agg_options);

  io::print_banner(std::cout, "Fig. 3: " + scheme_names[0] + " vs " + scheme_names[1] +
                                  " exhaustive assignment (M = 2, NS in [2, 6])");
  std::cout << tasksets << " tasksets per utilization point.\n";
  sweep.run(std::cout);
  const auto cells = sweep.cells();

  io::Table table({"total utilization", "mean gap (%)", "max gap (%)", "samples"});
  for (std::size_t p = 0; p < sweep.spec().points.size(); ++p) {
    const auto& point = sweep.spec().points[p];
    const auto* cell = hexp::Aggregator::find(cells, p, scheme_names[0]);
    if (cell == nullptr || cell->gap_samples == 0) {
      table.add_row({io::fmt(point.total_utilization, 3), "-", "-", "0"});
      continue;
    }
    table.add_row({io::fmt(point.total_utilization, 3), io::fmt(cell->gap_mean_percent, 2),
                   io::fmt(cell->gap_max_percent, 2), std::to_string(cell->gap_samples)});
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  sweep.finish(std::cout);
  std::cout << "\nShape target: gap ~0 at low/medium utilization, growing at "
               "high utilization yet staying well below ~25% (paper: <= 22%).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hexp::run_sweep_cli(argc, argv,
                             {"tasksets", "seed", "schemes", "csv", "utilizations"}, run);
}
