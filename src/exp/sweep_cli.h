// The command-line front end of the grid-sweep binaries (bench_fig1..fig5,
// examples/synthetic_exploration): the one copy of the sweep flags and of
// the shard-checkpoint protocol around them.  Each binary keeps only its own
// grid, metrics, tables and text.
//
//   --jobs N          worker threads (SweepSpec::jobs; 0 = all cores)
//   --resume F        splice the completed cells of checkpoint F
//   --shard i/N       run only the cells exp::sweep_shard_of gives shard i
//   --out F           per-(instance, scheme) rows, .jsonl/.json or .csv; a
//                     JSONL file is a checkpoint and opens with the header
//                     that --resume and hydra_merge check (CSV is not one,
//                     so a shard cannot write it)
//   --agg-out F       the aggregated cells as JSONL (not on a shard: merge
//                     the shards, then rerun with --resume merged.jsonl)
//
// Every misconfiguration — a malformed value, a CSV --out
// on a shard, --agg-out on a shard, an output file that cannot be opened —
// throws from the SweepCli constructor, before any cell runs.  A failed write
// on --out or --agg-out throws when the file is closed.
#pragma once

#include <cstddef>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/aggregate.h"
#include "exp/sweep.h"
#include "util/cli.h"

namespace hydra::exp {

/// The sweep flag names (without the leading "--").
inline constexpr const char* kJobsFlag = "jobs";
inline constexpr const char* kResumeFlag = "resume";
inline constexpr const char* kShardFlag = "shard";
inline constexpr const char* kOutFlag = "out";
inline constexpr const char* kAggOutFlag = "agg-out";

/// One grid sweep driven from the command line: the Sweep, the Aggregator
/// every table reads from, and the --out / --agg-out files.
class SweepCli {
 public:
  /// Applies --jobs, --resume and --shard to `spec`, builds the
  /// Sweep, and opens --agg-out and --out.  Throws as described above.  The
  /// Sweep reads --resume before --out truncates its file, so `--out F
  /// --resume F` both cold-starts a shard and restarts it after a crash.
  SweepCli(const util::CliParser& cli, SweepSpec spec,
           const AggregateOptions& aggregate = {});

  const Sweep& sweep() const { return sweep_; }
  const SweepSpec& spec() const { return sweep_.spec(); }

  /// Runs the sweep into the aggregator, the --out file and `extra`, then
  /// prints the shard note (sharded runs only) on `os`.
  SweepSummary run(std::ostream& os, const std::vector<ResultSink*>& extra = {});

  /// The aggregated cells of the run.
  std::vector<CellStats> cells() const { return aggregator_.cells(); }

  /// Writes --agg-out (throwing if the write failed) and prints the
  /// "resumed N of M cells" line when the run spliced a checkpoint.
  void finish(std::ostream& os);

 private:
  Sweep sweep_;
  Aggregator aggregator_;
  std::string agg_path_;
  std::ofstream agg_;
  std::unique_ptr<ResultSink> out_;
  std::size_t cells_ = 0;
  std::size_t resumed_cells_ = 0;
};

/// util::run_cli with the sweep flags added to the binary's own `known` ones.
int run_sweep_cli(int argc, const char* const* argv, std::vector<std::string> known,
                  const std::function<int(const util::CliParser&)>& body);

}  // namespace hydra::exp
