// Design-space exploration on synthetic workloads: sweep total utilization on
// a chosen platform and chart how each integration strategy's acceptance
// ratio and achieved tightness degrade — the workflow a system designer would
// run before committing to a security-integration architecture.
//
// Built on exp::Sweep + exp::Aggregator: the whole utilization axis is ONE
// declarative spec evaluated as a single work-stealing queue (--jobs), every
// chart column reads straight off the aggregated cells, --out captures the
// per-(instance, scheme) rows, and --resume picks a killed run back up from
// its JSONL checkpoint without recomputing finished cells.
//
// Usage: ./build/synthetic_exploration [--cores 4] [--tasksets 50] [--seed 21]
//                                      [--schemes hydra,single-core]
//                                      [--utilizations 0.4,0.8,...]
//                                      [sweep flags: --jobs --resume --shard
//                                       --out --agg-out; see exp/sweep_cli.h]
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
  const auto m = cli.get_count("cores", 4);
  const auto tasksets = cli.get_count("tasksets", 50);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 21));
  const auto scheme_names = cli.get_string_list("schemes", {"hydra", "single-core"});

  gen::SyntheticConfig config;
  config.num_cores = m;

  // Nine points from 0.1·M to 0.9·M — coarser than Fig. 2's 39-point axis,
  // adjustable with --utilizations.
  hexp::SweepSpec spec;
  spec.schemes = scheme_names;
  spec.replications = tasksets;
  spec.base_seed = seed;
  spec.add_utilization_grid(
      config, cli.get_double_list("utilizations", hexp::utilization_axis(m, 9, 0.1)));
  hexp::SweepCli sweep(cli, std::move(spec));

  io::print_banner(std::cout, "Design-space sweep on M = " + std::to_string(m) +
                                  " cores (" + std::to_string(tasksets) +
                                  " tasksets per point, " +
                                  std::to_string(scheme_names.size()) + " schemes)");

  sweep.run(std::cout);
  const auto cells = sweep.cells();

  std::vector<std::string> headers = {"utilization"};
  for (const auto& name : scheme_names) {
    headers.push_back(name + " accept");
    headers.push_back(name + " tightness");
  }
  io::Table table(headers);
  for (std::size_t p = 0; p < sweep.spec().points.size(); ++p) {
    std::vector<std::string> cells_row = {
        io::fmt(sweep.spec().points[p].total_utilization, 2)};
    for (const auto& name : scheme_names) {
      const auto* cell = hexp::Aggregator::find(cells, p, name);
      cells_row.push_back(cell == nullptr ? "-" : io::fmt(cell->acceptance_ratio, 2));
      cells_row.push_back(cell == nullptr || cell->tightness.count == 0
                              ? std::string("-")
                              : io::fmt(cell->tightness.mean, 3));
    }
    table.add_row(std::move(cells_row));
  }
  table.print(std::cout);

  std::cout << "\ntightness columns are normalized by the upper bound (every "
               "monitor at its desired rate = 1.0).\n";
  sweep.finish(std::cout);
  if (cli.has("out")) {
    std::cout << "per-(instance, scheme) rows written to " << cli.get_string("out", "")
              << ".\n";
  }
  if (cli.has("agg-out")) {
    std::cout << "aggregated cells written to " << cli.get_string("agg-out", "") << ".\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hexp::run_sweep_cli(argc, argv,
                             {"cores", "tasksets", "seed", "schemes", "utilizations"}, run);
}
