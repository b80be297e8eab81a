// Ablation: HYDRA's core-selection rule (Algorithm 1, line 11).
//
// The paper picks the core with maximum achievable tightness.  This bench
// compares that rule against first-feasible, least-loaded and the adversarial
// worst-tightness pick on synthetic workloads: acceptance ratio and mean
// cumulative tightness (normalized by its upper bound Σω).
//
// Usage: bench_ablation_core_pick [--cores 4] [--tasksets 100] [--seed 3] [--csv]
#include <iostream>
#include <map>
#include <vector>

#include "core/hydra.h"
#include "gen/synthetic.h"
#include "io/table.h"
#include "sec/tightness.h"
#include "stats/summary.h"
#include "util/cli.h"

namespace core = hydra::core;
namespace gen = hydra::gen;
namespace io = hydra::io;

namespace {

int run(const hydra::util::CliParser& cli) {
  const auto m = cli.get_count("cores", 4);
  const int tasksets = static_cast<int>(cli.get_int("tasksets", 100));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));
  const bool csv = cli.get_bool("csv", false);

  const std::vector<std::pair<std::string, core::CorePick>> policies{
      {"max-tightness (paper)", core::CorePick::kMaxTightness},
      {"first-feasible", core::CorePick::kFirstFeasible},
      {"least-loaded", core::CorePick::kLeastLoaded},
      {"worst-tightness", core::CorePick::kWorstTightness},
  };

  io::print_banner(std::cout, "Ablation: Algorithm 1 core-selection rule (M = " +
                                  std::to_string(m) + ")");

  gen::SyntheticConfig config;
  config.num_cores = m;

  io::Table table({"utilization", "policy", "acceptance", "mean normalized tightness"});
  for (const double phase : {0.4, 0.7, 0.9}) {
    const double u = phase * static_cast<double>(m);
    // One shared batch of instances so policies see identical workloads.
    hydra::util::Xoshiro256 rng(seed);
    std::vector<core::Instance> instances;
    for (int rep = 0; rep < tasksets; ++rep) {
      auto trial_rng = rng.fork();
      if (const auto drawn = gen::generate_filtered_instance(config, u, trial_rng)) {
        instances.push_back(drawn->instance);
      }
    }

    for (const auto& [name, pick] : policies) {
      core::HydraOptions opts;
      opts.core_pick = pick;
      const core::HydraAllocator allocator(opts);
      hydra::stats::AcceptanceCounter counter;
      std::vector<double> tightness;
      for (const auto& inst : instances) {
        const auto allocation = allocator.allocate(inst);
        counter.record(allocation.feasible);
        if (allocation.feasible) {
          tightness.push_back(allocation.cumulative_tightness(inst.security_tasks) /
                              hydra::sec::max_cumulative_tightness(inst.security_tasks));
        }
      }
      table.add_row({io::fmt(u, 2), name, io::fmt(counter.ratio(), 3),
                     tightness.empty() ? std::string("-")
                                       : io::fmt(hydra::stats::summarize(tightness).mean, 3)});
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nReading: the paper's argmax-tightness rule should match or "
               "beat the alternatives on tightness at comparable acceptance.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hydra::util::run_cli(argc, argv, {"cores", "tasksets", "seed", "csv"}, run);
}
