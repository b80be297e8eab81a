#include "swarm/sweep_runner.h"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "exp/merge.h"
#include "exp/sinks.h"
#include "exp/sweep_cli.h"

namespace fs = std::filesystem;

namespace hydra::swarm {

ShardProbe probe_shard_checkpoint(const std::string& path) {
  ShardProbe probe;
  std::ifstream in(path, std::ios::binary);
  if (!in) return probe;
  probe.exists = true;

  std::string first_line;
  bool first_complete = false;
  std::size_t newlines = 0;
  char buffer[65536];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    const std::size_t n = static_cast<std::size_t>(in.gcount());
    for (std::size_t i = 0; i < n; ++i) {
      if (!first_complete) {
        if (buffer[i] == '\n') {
          first_complete = true;
        } else {
          first_line.push_back(buffer[i]);
        }
      }
      if (buffer[i] == '\n') ++newlines;
    }
    probe.bytes += n;
  }
  if (first_complete) probe.header = exp::parse_shard_header(first_line);
  probe.durable_rows = newlines - (probe.header.has_value() && newlines > 0 ? 1 : 0);
  return probe;
}

namespace {

std::string shard_path(const std::string& dir, std::size_t shard) {
  return dir + "/shard_" + std::to_string(shard) + ".jsonl";
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SweepRunner::SweepRunner(SweepRunnerOptions options, ProcessBackend& backend,
                         EventLog& log)
    : options_(std::move(options)), backend_(backend), log_(log) {
  if (options_.shards == 0) throw std::invalid_argument("swarm needs >= 1 shard");
  if (options_.worker_command.empty()) {
    throw std::invalid_argument("swarm needs a worker command (after --)");
  }
  if (options_.dir.empty()) throw std::invalid_argument("swarm needs a --dir");
  if (!std::isfinite(options_.poll_interval_s) || options_.poll_interval_s <= 0.0) {
    throw std::invalid_argument(
        "poll_interval_s must be finite and > 0 (0 busy-spins the probe loop,"
        " negative sleeps forever)");
  }
  if (!std::isfinite(options_.merge_interval_s) || options_.merge_interval_s <= 0.0) {
    throw std::invalid_argument("merge_interval_s must be finite and > 0");
  }
  if (options_.chaos_kill_shard >= 0 &&
      static_cast<std::size_t>(options_.chaos_kill_shard) >= options_.shards) {
    throw std::invalid_argument("chaos shard index out of range");
  }
}

SweepRunResult SweepRunner::run(std::ostream& status) {
  SweepRunResult result;
  fs::create_directories(options_.dir);

  Supervisor supervisor(backend_, options_.policy, log_, steady_seconds);
  std::vector<std::string> checkpoints;
  for (std::size_t i = 0; i < options_.shards; ++i) {
    const std::string checkpoint = shard_path(options_.dir, i);
    checkpoints.push_back(checkpoint);
    WorkerSpec spec;
    spec.argv = options_.worker_command;
    // --out and --resume name the same path, so a restart splices every
    // durable cell of its dead predecessor: one argv serves cold start and
    // recovery alike.
    const auto shard_args = exp::shard_worker_args(i, options_.shards, checkpoint);
    spec.argv.insert(spec.argv.end(), shard_args.begin(), shard_args.end());
    spec.stdout_path = options_.dir + "/shard_" + std::to_string(i) + ".log";
    spec.stderr_path = options_.dir + "/shard_" + std::to_string(i) + ".err";
    supervisor.add_task("shard-" + std::to_string(i), std::move(spec));
  }
  log_.emit(steady_seconds(), "swarm-started", "",
            std::to_string(options_.shards) + " shard(s): " +
                options_.worker_command.front());

  bool chaos_fired = options_.chaos_kill_shard < 0;
  double next_merge_t = steady_seconds() + options_.merge_interval_s;
  std::vector<ShardProbe> probes(options_.shards);
  std::string last_status_line;

  const auto merge_partial = [&]() {
    if (options_.partial_path.empty()) return;
    std::vector<std::string> present;
    for (const auto& path : checkpoints) {
      if (fs::exists(path)) present.push_back(path);
    }
    if (present.empty()) return;
    exp::MergeOptions merge_options;
    merge_options.require_complete = false;
    merge_options.expect_fingerprint = options_.expect_fingerprint;
    try {
      const auto merged = exp::merge_checkpoints(present, merge_options);
      const std::string tmp = options_.partial_path + ".tmp";
      {
        auto out = exp::open_output_file(tmp);
        exp::write_merged(merged, out);
        // A failed write keeps the previous snapshot: no rename.
        exp::check_written(out, tmp);
      }
      fs::rename(tmp, options_.partial_path);
      log_.emit(steady_seconds(), "partial-merged", options_.partial_path,
                std::to_string(merged.cells.size()) + " cells, " +
                    std::to_string(merged.rows) + " rows" +
                    (merged.complete ? ", complete" : ""));
    } catch (const std::exception& error) {
      // A torn mid-write snapshot can be transiently unmergeable, and a
      // snapshot write can fail; the next timer tick retries.  Never fatal
      // for the swarm itself.
      log_.emit(steady_seconds(), "partial-merge-failed", options_.partial_path,
                error.what());
    }
  };

  while (!supervisor.finished()) {
    supervisor.tick();

    for (std::size_t i = 0; i < options_.shards; ++i) {
      probes[i] = probe_shard_checkpoint(checkpoints[i]);
      supervisor.report_progress(i, static_cast<double>(probes[i].bytes));
    }

    if (!chaos_fired) {
      const auto& probe = probes[static_cast<std::size_t>(options_.chaos_kill_shard)];
      if (probe.durable_rows >= options_.chaos_after_rows) {
        chaos_fired = true;
        supervisor.kill(static_cast<std::size_t>(options_.chaos_kill_shard),
                        "chaos injection after " +
                            std::to_string(probe.durable_rows) + " durable rows");
      }
    }

    std::string line;
    for (std::size_t i = 0; i < options_.shards; ++i) {
      const auto& task = supervisor.status(i);
      line += (i == 0 ? "" : "  ") + task.name + ": ";
      if (task.state == TaskState::kDone) {
        line += "done";
      } else if (task.state == TaskState::kFailed) {
        line += "FAILED";
      } else {
        line += std::to_string(probes[i].durable_rows) + " rows";
        if (probes[i].header.has_value()) {
          const auto schemes = probes[i].header->schemes.size();
          line += "/" + std::to_string(probes[i].header->cells *
                                       (schemes == 0 ? 1 : schemes));
        }
        if (task.attempts > 1) {
          line += " (attempt " + std::to_string(task.attempts) + ")";
        }
      }
    }
    if (line != last_status_line) {
      status << line << "\n";
      status.flush();
      last_status_line = line;
    }

    if (steady_seconds() >= next_merge_t) {
      merge_partial();
      next_merge_t = steady_seconds() + options_.merge_interval_s;
    }

    if (!supervisor.finished()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.poll_interval_s));
    }
  }

  result.restarts = supervisor.restarts();

  if (!supervisor.all_done()) {
    // LOUD failure: never present a partial stream as the merged result.
    std::string why;
    for (std::size_t i = 0; i < supervisor.size(); ++i) {
      const auto& task = supervisor.status(i);
      if (task.state == TaskState::kFailed) {
        if (!why.empty()) why += "; ";
        why += task.name + ": " + task.failure;
      }
    }
    supervisor.shutdown("sibling shard exhausted its retry budget");
    merge_partial();
    result.error = "swarm FAILED (" + why + "); the merged stream was NOT " +
                   "written. Salvage the survivors with: hydra_merge "
                   "--allow-partial " + options_.dir + "/shard_*.jsonl";
    log_.emit(steady_seconds(), "swarm-failed", "", why);
    return result;
  }

  exp::MergeOptions merge_options;
  merge_options.require_complete = true;
  merge_options.expect_fingerprint = options_.expect_fingerprint;
  const auto merged = exp::merge_checkpoints(checkpoints, merge_options);
  if (options_.out_path.empty()) {
    exp::write_merged(merged, std::cout);
    exp::check_written(std::cout, "standard output");
  } else {
    auto out = exp::open_output_file(options_.out_path);
    exp::write_merged(merged, out);
    exp::check_written(out, options_.out_path);
  }
  if (!options_.partial_path.empty()) merge_partial();
  result.ok = true;
  result.cells = merged.cells.size();
  result.rows = merged.rows;
  log_.emit(steady_seconds(), "swarm-complete", options_.out_path,
            std::to_string(merged.cells.size()) + " cells, " +
                std::to_string(merged.rows) + " rows, " +
                std::to_string(result.restarts) + " restart(s)");
  return result;
}

}  // namespace hydra::swarm
