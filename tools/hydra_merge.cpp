// hydra_merge: union sweep checkpoints (shard outputs, merged files, partial
// merges) back into the single JSONL stream a one-process run would have
// written (see exp/merge.h for the contract: every input opens with a
// header of one spec fingerprint; order-insensitive, idempotent, loud on
// conflicts, torn trailing lines discarded).
//
// Typical fan-out, three processes then one merge:
//
//     bench_fig2_acceptance --shard 0/3 --out s0.jsonl   # machine 0
//     bench_fig2_acceptance --shard 1/3 --out s1.jsonl   # machine 1
//     bench_fig2_acceptance --shard 2/3 --out s2.jsonl   # machine 2
//     hydra_merge --out merged.jsonl s0.jsonl s1.jsonl s2.jsonl
//
// merged.jsonl, header included, is byte-identical to the unsharded run's
// --out and doubles as a complete --resume checkpoint (e.g. to re-print
// tables without recomputing anything).
//
// Usage: hydra_merge [--out merged.jsonl] [--allow-partial] [--check]
//                    [--expect-fingerprint HEX] shard0.jsonl shard1.jsonl ...
//
//   --out                 write here instead of stdout
//   --allow-partial       union whatever is present instead of requiring a
//                         complete shard set (the result is then only a
//                         --resume checkpoint, not the full stream)
//   --check               consistency/progress probe: merge in memory, print
//                         one status line, write NOTHING (implies
//                         --allow-partial) — the cheap form a watcher loop
//                         polls between merges
//   --expect-fingerprint  additionally pin the inputs' spec fingerprint
//
// Exit codes (the scriptable contract shard scripts and CI check):
//   0  complete — the merged stream provably reconstructs the full grid: the
//      headers agree on grid_cells, that many distinct cells were merged,
//      and every cell has one row per scheme
//   3  partial but consistent — no conflicts, but cells or rows are missing
//      (only reachable with --allow-partial or --check; a bare run throws);
//      a partial merge merged again on its own is still partial
//   1  inconsistent or unreadable inputs (conflicting duplicates, foreign
//      fingerprints, a missing header, corrupt lines, missing or empty
//      files), or an output that cannot be written
//   2  usage error
#include <iostream>

#include "exp/merge.h"
#include "exp/sinks.h"
#include "util/cli.h"

namespace hexp = hydra::exp;

int main(int argc, char** argv) {
  try {
    const hydra::util::CliParser cli(argc, argv, /*allow_positionals=*/true,
                                     /*value_less_flags=*/{"allow-partial", "check"});
    cli.require_known({"out", "allow-partial", "check", "expect-fingerprint"});
    const auto& shards = cli.positionals();
    if (shards.empty()) {
      std::cerr << "usage: " << cli.program()
                << " [--out merged.jsonl] [--allow-partial] [--check]"
                   " [--expect-fingerprint HEX] shard0.jsonl shard1.jsonl ...\n";
      return 2;
    }
    const bool check = cli.get_bool("check", false);
    if (check && cli.has("out")) {
      std::cerr << "hydra_merge: --check writes nothing; drop --out or --check\n";
      return 2;
    }

    hexp::MergeOptions options;
    options.require_complete = !check && !cli.get_bool("allow-partial", false);
    options.expect_fingerprint = cli.get_string("expect-fingerprint", "");
    const auto merged = hexp::merge_checkpoints(shards, options);

    if (check) {
      // One greppable status line on stdout; the exit code carries the same
      // verdict for scripts that do not parse.
      std::cout << (merged.complete ? "complete" : "partial") << " cells="
                << merged.cells.size() << " rows=" << merged.rows
                << " grid_cells=" << merged.header.grid_cells
                << " fingerprint=" << merged.header.fingerprint << "\n";
      if (!merged.complete) std::cerr << "hydra_merge: " << merged.incomplete_reason << "\n";
      return merged.complete ? 0 : 3;
    }

    if (cli.has("out")) {
      const auto path = cli.get_string("out", "");
      auto out = hexp::open_output_file(path);
      hexp::write_merged(merged, out);
      hexp::check_written(out, path);
    } else {
      hexp::write_merged(merged, std::cout);
      hexp::check_written(std::cout, "standard output");
    }

    // Provenance summary on stderr, so stdout stays a clean JSONL stream.
    std::cerr << "merged " << merged.cells.size() << " cells (" << merged.rows
              << " rows) from " << merged.shard_files << " shard file(s), spec fingerprint "
              << merged.header.fingerprint << ", grid of " << merged.header.grid_cells
              << " cells";
    if (merged.duplicate_rows > 0) {
      std::cerr << "; coalesced " << merged.duplicate_rows << " duplicate row(s)";
    }
    if (merged.torn_lines > 0) {
      std::cerr << "; discarded " << merged.torn_lines << " torn trailing line(s)";
    }
    if (!merged.complete) {
      std::cerr << "; PARTIAL: " << merged.incomplete_reason;
    }
    std::cerr << "\n";
    return merged.complete ? 0 : 3;
  } catch (const std::exception& error) {
    std::cerr << "hydra_merge: " << error.what() << "\n";
    return 1;
  }
}
