// Ablation: the paper's linear interference bound (Eq. 5) vs exact
// response-time analysis inside HYDRA's period-adaptation subproblem.
//
// Eq. (5) charges every interferer ⌈·⌉-free as (1 + Ts/T)·C, which
// over-approximates the true preemption count.  Exact RTA admits tighter
// periods and more tasksets; the bound buys closed-form/GP solvability.
// This bench measures what the approximation costs: acceptance ratio and
// mean normalized tightness across a utilization sweep.
//
// Usage: bench_ablation_exact_rta [--cores 2] [--tasksets 100] [--seed 23]
//                                 [--csv]
#include <iostream>
#include <vector>

#include "core/hydra.h"
#include "core/validation.h"
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
  const auto m = cli.get_count("cores", 2);
  const int tasksets = static_cast<int>(cli.get_int("tasksets", 100));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 23));
  const bool csv = cli.get_bool("csv", false);

  io::print_banner(std::cout,
                   "Ablation: Eq. (5) linear bound vs exact RTA (M = " + std::to_string(m) + ")");

  gen::SyntheticConfig config;
  config.num_cores = m;

  core::HydraOptions exact_opts;
  exact_opts.solver = core::PeriodSolver::kExactRta;
  const core::HydraAllocator bound_alloc;             // paper's Eq. (5)
  const core::HydraAllocator exact_alloc(exact_opts); // exact RTA

  io::Table table({"utilization", "accept bound", "accept exact", "tightness bound",
                   "tightness exact"});

  for (const double phase : {0.3, 0.5, 0.7, 0.85, 0.95}) {
    const double u = phase * static_cast<double>(m);
    hydra::util::Xoshiro256 rng(seed);
    hydra::stats::AcceptanceCounter bound_counter, exact_counter;
    std::vector<double> bound_tightness, exact_tightness;

    for (int rep = 0; rep < tasksets; ++rep) {
      auto trial_rng = rng.fork();
      const auto drawn = gen::generate_filtered_instance(config, u, trial_rng);
      if (!drawn.has_value()) {
        bound_counter.record(false);
        exact_counter.record(false);
        continue;
      }
      const auto& inst = drawn->instance;
      const double upper = hydra::sec::max_cumulative_tightness(inst.security_tasks);

      const auto via_bound = bound_alloc.allocate(inst);
      bound_counter.record(via_bound.feasible);
      if (via_bound.feasible) {
        bound_tightness.push_back(via_bound.cumulative_tightness(inst.security_tasks) / upper);
      }
      const auto via_exact = exact_alloc.allocate(inst);
      exact_counter.record(via_exact.feasible);
      if (via_exact.feasible) {
        exact_tightness.push_back(via_exact.cumulative_tightness(inst.security_tasks) / upper);
        // Exact allocations must re-validate under exact RTA.
        const auto report = core::validate_allocation(inst, via_exact, std::nullopt,
                                                      core::ScheduleTest::kExactRta);
        if (!report.valid) {
          std::cerr << "VALIDATION FAILURE: " << report.problem << "\n";
          return 1;
        }
      }
    }

    const auto mean_or_dash = [](const std::vector<double>& v) {
      return v.empty() ? std::string("-") : io::fmt(hydra::stats::summarize(v).mean, 3);
    };
    table.add_row({io::fmt(u, 2), io::fmt(bound_counter.ratio(), 3),
                   io::fmt(exact_counter.ratio(), 3), mean_or_dash(bound_tightness),
                   mean_or_dash(exact_tightness)});
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nReading: exact RTA never accepts fewer tasksets and never "
               "yields looser periods; the gap is the price of the paper's "
               "closed-form/GP-friendly bound.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hydra::util::run_cli(argc, argv, {"cores", "tasksets", "seed", "csv"}, run);
}
