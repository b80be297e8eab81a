// Precedence chains (paper §V): "in order to ensure that the security
// application itself has not been compromised, the security application's own
// binary may need to be examined first before checking the system binary
// files."
//
// This example builds a catalog where the natural ascending-Tmax priority
// order VIOLATES that requirement, derives a chain-consistent order, runs
// HYDRA with it, and verifies the result end to end (validator + simulator).
//
// Usage: ./build/precedence_chains [--cores 2]
#include <iostream>

#include "core/hydra.h"
#include "core/validation.h"
#include "gen/uav.h"
#include "io/table.h"
#include "rt/priority.h"
#include "sec/catalog.h"
#include "sim/attack.h"
#include "sim/engine.h"
#include "util/cli.h"

namespace core = hydra::core;
namespace io = hydra::io;
namespace rt = hydra::rt;
namespace sec = hydra::sec;

namespace {

int run(const hydra::util::CliParser& cli) {
  const auto m = cli.get_count("cores", 2);

  core::Instance instance;
  instance.num_cores = m;
  instance.rt_tasks = hydra::gen::uav_taskset();
  // A self-check with a LOOSE Tmax (it is cheap, so even rare runs help) and
  // a system scan with a tight Tmax: plain Tmax ordering would put the scan
  // first — violating "check thyself before checking others".
  instance.security_tasks = {
      rt::make_security_task("self_check", 80.0, 1000.0, 30000.0),
      rt::make_security_task("system_scan", 500.0, 1500.0, 15000.0),
      rt::make_security_task("network_monitor", 400.0, 2000.0, 20000.0),
  };
  const std::vector<sec::Chain> chains{sec::Chain{{0, 1}}};  // self_check → system_scan

  const auto natural = rt::security_priority_order(instance.security_tasks);
  const auto consistent = sec::chain_consistent_order(instance.security_tasks, chains);

  io::print_banner(std::cout, "priority orders (index 0 = highest priority)");
  io::Table orders({"rank", "ascending Tmax (violates chain)", "chain-consistent"});
  for (std::size_t r = 0; r < natural.size(); ++r) {
    orders.add_row({std::to_string(r), instance.security_tasks[natural[r]].name,
                    instance.security_tasks[consistent[r]].name});
  }
  orders.print(std::cout);
  std::cout << "natural order respects chain: "
            << (sec::respects_chains(chains, rt::rank_of(natural)) ? "yes" : "NO") << "\n";
  std::cout << "chain-consistent order respects chain: "
            << (sec::respects_chains(chains, rt::rank_of(consistent)) ? "yes" : "NO") << "\n";

  core::HydraOptions opts;
  opts.priority_order = consistent;
  const auto allocation = core::HydraAllocator(opts).allocate(instance);
  if (!allocation.feasible) {
    std::cerr << "unschedulable: " << allocation.failure_reason << "\n";
    return 1;
  }

  io::print_banner(std::cout, "allocation under the chain-consistent order");
  io::Table table({"monitor", "core", "period (ms)", "tightness"});
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    const auto& p = allocation.placements[s];
    table.add_row({instance.security_tasks[s].name, std::to_string(p.core),
                   io::fmt(p.period, 1), io::fmt(p.tightness, 3)});
  }
  table.print(std::cout);

  // End-to-end checks with the SAME order threaded through.
  const auto report = core::validate_allocation(instance, allocation, consistent);
  std::cout << "validator: " << (report.valid ? "OK" : report.problem) << "\n";

  const auto tasks = hydra::sim::build_sim_tasks(instance, allocation, consistent);
  hydra::sim::SimOptions sim_opts;
  sim_opts.horizon = 60u * 1000u * hydra::util::kTicksPerMilli;
  const auto trace = hydra::sim::simulate(tasks, sim_opts);
  std::cout << "simulation (60 s): " << trace.total_jobs() << " jobs, "
            << trace.deadline_misses() << " deadline misses\n";
  return report.valid && trace.deadline_misses() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return hydra::util::run_cli(argc, argv, {"cores"}, run);
}
