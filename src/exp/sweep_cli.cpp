#include "exp/sweep_cli.h"

#include <ostream>
#include <stdexcept>
#include <utility>

namespace hydra::exp {

namespace {

SweepSpec with_sweep_flags(const util::CliParser& cli, SweepSpec spec) {
  spec.jobs = cli.get_count(kJobsFlag, 1);
  spec.resume_path = cli.get_string(kResumeFlag, "");
  const auto shard = parse_shard_spec(cli.get_string(kShardFlag, "0/1"));
  spec.shard_index = shard.index;
  spec.shard_count = shard.count;
  return spec;
}

}  // namespace

SweepCli::SweepCli(const util::CliParser& cli, SweepSpec spec,
                   const AggregateOptions& aggregate)
    : sweep_(with_sweep_flags(cli, std::move(spec))), aggregator_(aggregate) {
  const bool sharded = sweep_.spec().shard_count > 1;
  if (cli.has(kAggOutFlag)) {
    if (sharded) {
      // A shard sees a fraction of every cell's samples; its aggregate file
      // would be indistinguishable from a full-grid one downstream.
      throw std::invalid_argument(
          "--agg-out is not available on a sharded run: merge the shard outputs "
          "with hydra_merge, then rerun with --resume merged.jsonl --agg-out");
    }
    agg_path_ = cli.get_string(kAggOutFlag, "");
    agg_ = open_output_file(agg_path_);
  }
  if (cli.has(kOutFlag)) {
    // A JSONL --out is a checkpoint and opens with the header.  CSV is not
    // one and stays headerless; a shard must write a checkpoint, so it
    // passes the header anyway and make_file_sink refuses it on CSV.
    const auto path = cli.get_string(kOutFlag, "");
    const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    out_ = make_file_sink(path, csv && !sharded ? ""
                                                : format_shard_header(sweep_.shard_header()));
  }
}

SweepSummary SweepCli::run(std::ostream& os, const std::vector<ResultSink*>& extra) {
  std::vector<ResultSink*> sinks = {&aggregator_};
  if (out_) sinks.push_back(out_.get());
  sinks.insert(sinks.end(), extra.begin(), extra.end());
  auto summary = sweep_.run(sinks);
  const auto& spec = sweep_.spec();
  if (spec.shard_count > 1) {
    os << "shard " << spec.shard_index << "/" << spec.shard_count << ": "
       << summary.cells
       << " of the grid's cells ran here; merge the shard outputs with "
          "hydra_merge (tables below cover this shard only).\n";
  }
  cells_ = summary.cells;
  resumed_cells_ = summary.resumed_cells;
  return summary;
}

void SweepCli::finish(std::ostream& os) {
  if (!agg_path_.empty()) {
    aggregator_.write_jsonl(agg_);
    check_written(agg_, agg_path_);
  }
  if (resumed_cells_ > 0) {
    os << "\nresumed " << resumed_cells_ << " of " << cells_ << " cells from "
       << sweep_.spec().resume_path << "\n";
  }
}

int run_sweep_cli(int argc, const char* const* argv, std::vector<std::string> known,
                  const std::function<int(const util::CliParser&)>& body) {
  known.insert(known.end(), {kJobsFlag, kResumeFlag, kShardFlag, kOutFlag, kAggOutFlag});
  return util::run_cli(argc, argv, known, body);
}

}  // namespace hydra::exp
