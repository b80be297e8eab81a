// The paper's end-to-end workflow in one command: evaluate every integration
// strategy on a workload and print the designer-facing comparison — which
// scheme to pick, what it costs, and where each monitor lands.
//
// By default the paper's line-up runs (hydra, hydra/exact-rta, single-core,
// optimal when affordable).  --schemes switches to any registry selection,
// --list-schemes prints the catalog, and --out streams the comparison rows to
// a .jsonl/.csv file through a one-point exp::Sweep — the same row schema
// every sweep bench emits, so report output feeds the same downstream
// tooling.
//
// Usage: ./build/design_space_report [--cores 2]
//        ./build/design_space_report --file taskset.txt
//        ./build/design_space_report --schemes hydra,hydra/first-fit,optimal
//                                    --out report.jsonl
//        ./build/design_space_report --list-schemes
#include <iostream>
#include <memory>
#include <vector>

#include "core/design_space.h"
#include "core/registry.h"
#include "exp/sweep.h"
#include "gen/uav.h"
#include "io/table.h"
#include "io/taskset_io.h"
#include "util/cli.h"

namespace core = hydra::core;
namespace hexp = hydra::exp;
namespace io = hydra::io;

int main(int argc, char** argv) {
  const hydra::util::CliParser cli(argc, argv);

  if (cli.get_bool("list-schemes", false)) {
    io::print_banner(std::cout, "registered allocation schemes");
    io::Table catalog({"name", "description"});
    const auto& registry = core::AllocatorRegistry::global();
    for (const auto& name : registry.names()) {
      catalog.add_row({name, registry.description(name)});
    }
    catalog.print(std::cout);
    return 0;
  }

  core::Instance instance;
  if (cli.has("file")) {
    instance = io::load_instance(cli.get_string("file", ""));
  } else {
    instance = hydra::gen::uav_case_study(static_cast<std::size_t>(cli.get_int("cores", 2)));
  }

  const auto report =
      cli.has("schemes")
          ? core::explore_design_space(instance, cli.get_string_list("schemes", {}))
          : core::explore_design_space(instance);

  io::print_banner(std::cout, "design-space comparison");
  io::Table table({"scheme", "feasible", "validated", "cumulative tightness",
                   "normalized", "security cores used"});
  for (const auto& p : report.points) {
    std::size_t cores_used = 0;
    if (p.allocation.feasible) {
      std::vector<bool> used(instance.num_cores, false);
      for (const auto& place : p.allocation.placements) used[place.core] = true;
      for (const bool u : used) cores_used += u ? 1u : 0u;
    }
    table.add_row({p.scheme, p.allocation.feasible ? "yes" : "no",
                   p.allocation.feasible ? (p.validated ? "yes" : p.validation_problem) : "-",
                   p.allocation.feasible ? io::fmt(p.cumulative_tightness, 3) : "-",
                   p.allocation.feasible ? io::fmt(p.normalized_tightness, 3) : "-",
                   p.allocation.feasible ? std::to_string(cores_used) : "-"});
  }
  table.print(std::cout);

  if (cli.has("out")) {
    // One-point sweep over the same instance and scheme selection: the file
    // gets bona fide sweep rows (status, validation, utilization context,
    // cell key) instead of a hand-assembled imitation.  This re-evaluates the
    // schemes (once for the table above, once here) — accepted for a one-shot
    // report CLI on a single instance; rows carry no Allocation, so reusing
    // `report.points` would mean hand-assembling rows again.
    hexp::SweepSpec sweep_spec;
    sweep_spec.schemes.clear();
    for (const auto& p : report.points) sweep_spec.schemes.push_back(p.scheme);
    hexp::SweepPoint point;
    point.instance = instance;
    point.label = cli.has("file") ? cli.get_string("file", "") : "uav-case-study";
    sweep_spec.points.push_back(std::move(point));
    const hexp::Sweep sweep(std::move(sweep_spec));
    const auto sink = hexp::make_file_sink(cli.get_string("out", ""));
    sweep.run({sink.get()});
    std::cout << "\nrows written to " << cli.get_string("out", "") << "\n";
  }

  const auto best = report.best_index();
  if (!best.has_value()) {
    std::cout << "\nno scheme produced a feasible integration — relax the "
                 "monitors' Tmax or desired periods.\n";
    return 1;
  }
  const auto& winner = report.points[*best];
  std::cout << "\nrecommended: " << winner.scheme << "\n\n";

  io::Table placement({"monitor", "core", "period (ms)", "tightness"});
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    const auto& p = winner.allocation.placements[s];
    placement.add_row({instance.security_tasks[s].name, std::to_string(p.core),
                       io::fmt(p.period, 1), io::fmt(p.tightness, 3)});
  }
  placement.print(std::cout);
  return 0;
}
