// Quickstart: integrate two security monitors into a 2-core legacy system.
//
// Demonstrates the minimal HYDRA workflow:
//   1. describe the legacy real-time tasks (they will not be modified),
//   2. describe the security tasks by (WCET, desired period, maximum period),
//   3. run the HYDRA allocator,
//   4. read back each monitor's core, period and tightness.
//
// Build & run:  ./build/quickstart
#include <iostream>

#include "core/hydra.h"
#include "core/validation.h"
#include "io/table.h"

int main() {
  namespace core = hydra::core;
  namespace rt = hydra::rt;

  // 1. The legacy system: a 2-core platform running three control tasks.
  core::Instance instance;
  instance.num_cores = 2;
  instance.rt_tasks = {
      rt::make_rt_task("sensor_poll", 2.0, 10.0),    // 2 ms every 10 ms
      rt::make_rt_task("control_loop", 8.0, 40.0),   // 8 ms every 40 ms
      rt::make_rt_task("telemetry", 10.0, 100.0),    // 10 ms every 100 ms
  };

  // 2. The monitors to retrofit: a file-integrity check that would ideally
  //    run every 2 s (and is useless beyond 20 s), and a network scan.
  instance.security_tasks = {
      rt::make_security_task("integrity_check", 150.0, 2000.0, 20000.0),
      rt::make_security_task("network_scan", 300.0, 5000.0, 50000.0),
  };

  // 3. Allocate.  HYDRA partitions the RT tasks (best-fit), then assigns each
  //    security task a core and the tightest feasible period, highest
  //    priority first.
  const auto allocation = core::HydraAllocator().allocate(instance);
  if (!allocation.feasible) {
    std::cerr << "unschedulable: " << allocation.failure_reason << "\n";
    return 1;
  }

  // 4. Inspect the result.
  hydra::io::Table table({"monitor", "core", "period (ms)", "tightness"});
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    const auto& p = allocation.placements[s];
    table.add_row({instance.security_tasks[s].name, std::to_string(p.core),
                   hydra::io::fmt(p.period, 1), hydra::io::fmt(p.tightness, 3)});
  }
  table.print(std::cout);

  // Belt and braces: re-check Eq. (4)+(6) with the independent validator.
  const auto report = core::validate_allocation(instance, allocation);
  std::cout << "\nindependent validation: " << (report.valid ? "OK" : report.problem) << "\n";
  return report.valid ? 0 : 1;
}
