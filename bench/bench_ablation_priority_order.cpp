// Ablation: the security-task priority rule.
//
// The paper prioritizes by ascending Tmax (§II-C).  Plausible alternatives —
// ascending Tdes (rate-monotonic on the desired rate) or descending
// utilization (heaviest monitor first) — are injected through
// HydraOptions::priority_order and compared on acceptance ratio and mean
// normalized cumulative tightness.
//
// Usage: bench_ablation_priority_order [--cores 2] [--tasksets 120]
//                                      [--seed 37] [--csv]
#include <algorithm>
#include <iostream>
#include <numeric>
#include <vector>

#include "core/hydra.h"
#include "gen/synthetic.h"
#include "io/table.h"
#include "rt/priority.h"
#include "sec/tightness.h"
#include "stats/summary.h"
#include "util/cli.h"

namespace core = hydra::core;
namespace gen = hydra::gen;
namespace io = hydra::io;
namespace rt = hydra::rt;

namespace {

using OrderRule = std::vector<std::size_t> (*)(const std::vector<rt::SecurityTask>&);

std::vector<std::size_t> by_tmax(const std::vector<rt::SecurityTask>& tasks) {
  return rt::security_priority_order(tasks);  // the paper's rule
}

std::vector<std::size_t> by_tdes(const std::vector<rt::SecurityTask>& tasks) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].period_des < tasks[b].period_des;
  });
  return order;
}

std::vector<std::size_t> by_utilization(const std::vector<rt::SecurityTask>& tasks) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].max_utilization() > tasks[b].max_utilization();
  });
  return order;
}

int run(const hydra::util::CliParser& cli) {
  const auto m = cli.get_count("cores", 2);
  const int tasksets = static_cast<int>(cli.get_int("tasksets", 120));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 37));
  const bool csv = cli.get_bool("csv", false);

  io::print_banner(std::cout, "Ablation: security priority rule (M = " + std::to_string(m) + ")");

  const std::vector<std::pair<std::string, OrderRule>> rules{
      {"ascending Tmax (paper)", &by_tmax},
      {"ascending Tdes", &by_tdes},
      {"descending utilization", &by_utilization},
  };

  gen::SyntheticConfig config;
  config.num_cores = m;

  io::Table table({"utilization", "rule", "acceptance", "mean normalized tightness"});
  for (const double phase : {0.5, 0.7, 0.9}) {
    const double u = phase * static_cast<double>(m);
    hydra::util::Xoshiro256 rng(seed);
    std::vector<core::Instance> instances;
    for (int rep = 0; rep < tasksets; ++rep) {
      auto trial_rng = rng.fork();
      if (const auto drawn = gen::generate_filtered_instance(config, u, trial_rng)) {
        instances.push_back(drawn->instance);
      }
    }

    for (const auto& [name, rule] : rules) {
      hydra::stats::AcceptanceCounter counter;
      std::vector<double> tightness;
      for (const auto& inst : instances) {
        core::HydraOptions opts;
        opts.priority_order = rule(inst.security_tasks);
        const auto allocation = core::HydraAllocator(opts).allocate(inst);
        counter.record(allocation.feasible);
        if (allocation.feasible) {
          tightness.push_back(allocation.cumulative_tightness(inst.security_tasks) /
                              hydra::sec::max_cumulative_tightness(inst.security_tasks));
        }
      }
      table.add_row({io::fmt(u, 2), name, io::fmt(counter.ratio(), 3),
                     tightness.empty()
                         ? std::string("-")
                         : io::fmt(hydra::stats::summarize(tightness).mean, 3)});
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nReading: with Tmax = 10 x Tdes (the synthetic setup) the Tmax and "
               "Tdes rules coincide; utilization-first trades acceptance for "
               "protecting the heavyweight monitors.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hydra::util::run_cli(argc, argv, {"cores", "tasksets", "seed", "csv"}, run);
}
