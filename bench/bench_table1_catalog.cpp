// Table I reproduction: the security-task catalog (Tripwire + Bro) with the
// parameters used throughout the evaluation, plus a sweep-backed integration
// summary — the catalog placed on the UAV platform for each core count and
// scheme, evaluated through exp::Sweep/exp::Aggregator like every other
// bench (the exhaustive optimal is skipped automatically where its M^NS
// enumeration exceeds the sweep budget).
//
// Usage: bench_table1_catalog [--cores 2,4,8]
//                             [--schemes hydra,single-core,optimal]
//                             [--jobs 1] [--out rows.jsonl] [--csv]
//                             [--catalog-md] [--catalog-out docs/scheme-catalog.md]
//                             [--solver-catalog-md]
//                             [--solver-catalog-out docs/solver-catalog.md]
//                             [--controller-catalog-md]
//                             [--controller-catalog-out docs/controller-catalog.md]
//
// --catalog-md prints the full allocator registry (name + description) as the
// markdown scheme catalog and exits; --catalog-out writes it to a file — the
// committed docs/scheme-catalog.md is generated this way and kept in sync by
// the test_scheme_catalog ctest suite.  --solver-catalog-md/--solver-catalog-out
// do the same for the GP solver registry (docs/solver-catalog.md), and
// --controller-catalog-md/--controller-catalog-out for the runtime
// controller-policy registry (docs/controller-catalog.md).
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "core/registry.h"
#include "exp/aggregate.h"
#include "exp/sweep.h"
#include "gp/solver_registry.h"
#include "gen/uav.h"
#include "io/table.h"
#include "sec/catalog.h"
#include "sim/controller.h"
#include "util/cli.h"

namespace hexp = hydra::exp;

namespace {

int run(const hydra::util::CliParser& cli) {
  // --<prefix>catalog-md prints a registry catalog; --<prefix>catalog-out
  // writes it to a file.
  struct Catalog {
    std::string prefix;
    const char* kind;
    std::string markdown;
  };
  const Catalog catalogs[] = {
      {"", "scheme",
       hydra::util::catalog_markdown(hydra::core::AllocatorRegistry::global(),
                                     hydra::core::kSchemeCatalogPreamble)},
      {"solver-", "solver",
       hydra::util::catalog_markdown(hydra::gp::SolverRegistry::global(),
                                     hydra::gp::kSolverCatalogPreamble)},
      {"controller-", "controller",
       hydra::util::catalog_markdown(hydra::sim::ControllerRegistry::global(),
                                     hydra::sim::kControllerCatalogPreamble)},
  };
  for (const auto& catalog : catalogs) {
    if (cli.has(catalog.prefix + "catalog-out")) {
      const std::string path = cli.get_string(catalog.prefix + "catalog-out", "");
      std::ofstream out(path);
      if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 2;
      }
      out << catalog.markdown;
      std::cout << "wrote " << catalog.kind << " catalog to " << path << "\n";
      return 0;
    }
    if (cli.get_bool(catalog.prefix + "catalog-md", false)) {
      std::cout << catalog.markdown;
      return 0;
    }
  }
  const auto cores = cli.get_int_list("cores", {2, 4, 8});
  const auto scheme_names =
      cli.get_string_list("schemes", {"hydra", "single-core", "optimal"});
  const bool csv = cli.get_bool("csv", false);

  hydra::io::print_banner(std::cout, "Table I: security tasks (Tripwire TR / Bro BR)");
  hydra::io::Table table({"task", "app", "function", "C (ms)", "Tdes (ms)", "Tmax (ms)",
                          "U_des"});
  for (const auto& entry : hydra::sec::tripwire_bro_catalog()) {
    table.add_row({entry.task.name,
                   entry.app == hydra::sec::SecurityApp::kTripwire ? "TR" : "BR",
                   entry.function, hydra::io::fmt(entry.task.wcet, 0),
                   hydra::io::fmt(entry.task.period_des, 0),
                   hydra::io::fmt(entry.task.period_max, 0),
                   hydra::io::fmt(entry.task.max_utilization(), 3)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // The catalog in action: one sweep point per core count, every scheme.
  hexp::SweepSpec spec;
  spec.schemes = scheme_names;
  spec.jobs = cli.get_count("jobs", 1);
  for (const auto m : cores) {
    hexp::SweepPoint point;
    point.instance = hydra::gen::uav_case_study(static_cast<std::size_t>(m));
    point.label = "m=" + std::to_string(m);
    spec.points.push_back(std::move(point));
  }
  const hexp::Sweep sweep(std::move(spec));

  hexp::Aggregator aggregator;
  std::unique_ptr<hexp::ResultSink> file_sink;
  std::vector<hexp::ResultSink*> sinks = {&aggregator};
  if (cli.has("out")) {
    file_sink = hexp::make_file_sink(cli.get_string("out", ""));
    sinks.push_back(file_sink.get());
  }
  sweep.run(sinks);
  const auto cells = aggregator.cells();

  hydra::io::print_banner(std::cout, "catalog integrated on the UAV platform");
  hydra::io::Table integration({"cores", "scheme", "accepted", "normalized tightness"});
  for (std::size_t p = 0; p < sweep.spec().points.size(); ++p) {
    for (const auto& name : scheme_names) {
      const auto* cell = hexp::Aggregator::find(cells, p, name);
      if (cell == nullptr) continue;
      const bool accepted = cell->accepted > 0;
      integration.add_row(
          {sweep.spec().points[p].label, name,
           accepted ? "yes" : (cell->skipped > 0 ? "skipped (budget)" : "no"),
           accepted ? hydra::io::fmt(cell->tightness.mean, 3) : "-"});
    }
  }
  if (csv) {
    integration.print_csv(std::cout);
  } else {
    integration.print(std::cout);
  }
  std::cout << "\nNote: WCETs are representative embedded-board scan costs "
               "(docs/architecture.md, Substitutions and modelling choices, "
               "S6: the paper measured Tripwire/Bro on an "
               "ARM Cortex-A8; absolute values scale the curves, contention "
               "drives the comparisons).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hydra::util::run_cli(
      argc, argv,
      {"cores", "schemes", "csv", "jobs", "out", "catalog-out", "catalog-md", "solver-catalog-out",
       "solver-catalog-md", "controller-catalog-out", "controller-catalog-md"},
      run);
}
