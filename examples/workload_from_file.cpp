// Loading a workload from a taskset file: the integration workflow for a
// system whose task parameters live in version control rather than in code.
// Writes a demo file if none is given, then loads it, allocates with HYDRA,
// and prints the resulting security configuration.
//
// Usage: ./build/workload_from_file [--file path/to/taskset.txt]
#include <fstream>
#include <iostream>

#include "core/hydra.h"
#include "io/table.h"
#include "io/taskset_io.h"
#include "util/cli.h"

namespace core = hydra::core;
namespace io = hydra::io;

namespace {

constexpr const char* kDemoTaskset = R"(# industrial controller retrofit demo (times in ms)
cores 4

# legacy real-time tasks (never modified)
rt plc_scan        4    20
rt motion_control  6    40
rt fieldbus_poll   3    50
rt hmi_update      20   200
rt data_logger     15   500

# security monitors to integrate: name wcet tdes tmax [weight]
sec fw_rule_audit      120  1500  15000  3
sec binary_integrity   450  2000  20000  2
sec anomaly_detector   300  2500  25000  1
sec log_tamper_check   200  4000  40000  1
)";

int run(const hydra::util::CliParser& cli) {
  std::string path = cli.get_string("file", "");
  if (path.empty()) {
    path = "/tmp/hydra_demo_taskset.txt";
    std::ofstream(path) << kDemoTaskset;
    std::cout << "no --file given; wrote demo workload to " << path << "\n";
  }

  const core::Instance instance = io::load_instance(path);
  std::cout << "loaded " << instance.rt_tasks.size() << " RT tasks and "
            << instance.security_tasks.size() << " security tasks on "
            << instance.num_cores << " cores\n";

  const auto allocation = core::HydraAllocator().allocate(instance);
  if (!allocation.feasible) {
    std::cerr << "unschedulable: " << allocation.failure_reason << "\n"
              << "hint: relax the failing monitor's Tmax or desired period.\n";
    return 1;
  }

  io::print_banner(std::cout, "security configuration");
  io::Table table({"monitor", "core", "period (ms)", "tightness", "weight"});
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    const auto& task = instance.security_tasks[s];
    const auto& p = allocation.placements[s];
    table.add_row({task.name, std::to_string(p.core), io::fmt(p.period, 1),
                   io::fmt(p.tightness, 3), io::fmt(task.weight, 1)});
  }
  table.print(std::cout);
  std::cout << "weighted cumulative tightness: "
            << io::fmt(allocation.cumulative_tightness(instance.security_tasks), 3) << "\n";

  // Round-trip demonstration: re-serialize the instance.
  std::cout << "\ncanonical serialization:\n" << io::to_text(instance);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hydra::util::run_cli(argc, argv, {"file"}, run);
}
