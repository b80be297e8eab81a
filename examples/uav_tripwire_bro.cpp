// The paper's case study end to end: a UAV flight-control workload retrofit
// with the Table-I Tripwire/Bro monitors, compared across all three
// allocation schemes (HYDRA, SingleCore, Optimal) on a chosen core count.
//
// Usage: ./build/uav_tripwire_bro [--cores 2]
#include <iostream>

#include "core/hydra.h"
#include "core/optimal.h"
#include "core/single_core.h"
#include "gen/uav.h"
#include "io/table.h"
#include "sec/catalog.h"
#include "util/cli.h"

namespace core = hydra::core;
namespace io = hydra::io;

namespace {

void print_allocation(const std::string& scheme, const core::Instance& instance,
                      const core::Allocation& allocation) {
  io::print_banner(std::cout, scheme);
  if (!allocation.feasible) {
    std::cout << "unschedulable: " << allocation.failure_reason << "\n";
    return;
  }
  io::Table table({"security task", "core", "period (ms)", "tightness"});
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    const auto& p = allocation.placements[s];
    table.add_row({instance.security_tasks[s].name, std::to_string(p.core),
                   io::fmt(p.period, 1), io::fmt(p.tightness, 3)});
  }
  table.print(std::cout);
  std::cout << "cumulative tightness: "
            << io::fmt(allocation.cumulative_tightness(instance.security_tasks), 3) << " / "
            << io::fmt(static_cast<double>(instance.security_tasks.size()), 0) << "\n";
}

int run(const hydra::util::CliParser& cli) {
  const auto m = cli.get_count("cores", 2);

  const auto instance = hydra::gen::uav_case_study(m);

  io::print_banner(std::cout, "UAV real-time workload (M = " + std::to_string(m) + ")");
  io::Table rt_table({"task", "C (ms)", "T (ms)", "U"});
  for (const auto& t : instance.rt_tasks) {
    rt_table.add_row({t.name, io::fmt(t.wcet, 0), io::fmt(t.period, 0),
                      io::fmt(t.utilization(), 3)});
  }
  rt_table.print(std::cout);

  print_allocation("HYDRA (Algorithm 1)", instance,
                   core::HydraAllocator().allocate(instance));
  print_allocation("SingleCore (dedicated security core)", instance,
                   core::SingleCoreAllocator().allocate(instance));

  // The exhaustive comparator is exponential in NS; with the 6-task catalog
  // and small M it is still comfortable.
  print_allocation("Optimal (exhaustive + joint periods)", instance,
                   core::OptimalAllocator().allocate(instance));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hydra::util::run_cli(argc, argv, {"cores"}, run);
}
