// hydra_bench_diff: compare two google-benchmark JSON result files by
// benchmark name and print per-benchmark deltas of real_time (and
// items_per_second where reported).
//
//     bench_micro --benchmark_format=json --benchmark_out=now.json
//     hydra_bench_diff BENCH_baseline.json now.json
//
// Options:
//   --markdown        emit a GitHub-flavored table (for $GITHUB_STEP_SUMMARY)
//   --fail-over PCT   exit 4 if any benchmark's real_time regressed by more
//                     than PCT percent, or its items_per_second dropped by
//                     more than PCT percent (absent = report only, exit 0)
//
// A "context mismatch" line opens the table when the two files' num_cpus or
// library_build_type differ (unlike machines); it never changes the exit code.
//
// Exit codes: 0 compared (no enforced regression), 4 regression over the
// --fail-over threshold, 1 unreadable inputs, 2 usage.
//
// All comparison/gate semantics live in io/bench_diff.h (unit tested); this
// file is argument plumbing only.
#include <iostream>

#include "io/bench_diff.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  try {
    const hydra::util::CliParser cli(argc, argv, /*allow_positionals=*/true,
                                     /*value_less_flags=*/{"markdown"});
    cli.require_known({"markdown", "fail-over"});
    if (cli.positionals().size() != 2) {
      std::cerr << "usage: " << cli.program()
                << " [--markdown] [--fail-over PCT] baseline.json current.json\n";
      return 2;
    }
    const bool markdown = cli.get_bool("markdown", false);
    const double fail_over = cli.get_double("fail-over", -1.0);

    hydra::io::BenchContext baseline_context, current_context;
    const auto baseline =
        hydra::io::load_bench_results(cli.positionals()[0], &baseline_context);
    const auto current = hydra::io::load_bench_results(cli.positionals()[1], &current_context);
    const auto deltas = hydra::io::diff_bench_results(baseline, current);
    const std::string mismatch =
        hydra::io::bench_context_mismatch(baseline_context, current_context);

    std::cout << (markdown ? hydra::io::render_bench_diff_markdown(deltas, mismatch)
                           : hydra::io::render_bench_diff_text(deltas, mismatch));

    const auto violations = hydra::io::bench_gate_violations(deltas, fail_over);
    if (!violations.empty()) {
      std::cerr << "hydra_bench_diff: " << violations.size()
                << " benchmark(s) regressed more than " << fail_over << "%:\n";
      for (const auto& violation : violations) {
        std::cerr << "  " << violation << "\n";
      }
      return 4;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "hydra_bench_diff: " << error.what() << "\n";
    return 1;
  }
}
