// Sweep mode of hydra_swarm: fan one sharded sweep command out over N local
// worker processes, babysit them to completion, and emit the merged row
// stream — byte-identical to a single-process `--jobs 1` run of the same
// command (tests/test_swarm_sweep.cpp and the swarm-smoke CI job lock this,
// SIGKILL included).
//
// The runner owns the orchestration loop only; policy lives in the
// Supervisor and merging in exp::merge_checkpoints:
//
//   * each shard runs `worker_command... --shard i/N --out <dir>/shard_i.jsonl
//     --resume <dir>/shard_i.jsonl` (exp::shard_worker_args, the flags every
//     grid-sweep binary takes through exp/sweep_cli.h) — the
//     resume-from-own-output idiom the Sweep layer supports (checkpoint is
//     read before the sink truncates), so the SAME argv both cold-starts and
//     resumes: a restarted worker splices every durable cell of its dead
//     predecessor and recomputes nothing;
//   * progress is the shard checkpoint itself: the runner tails each file's
//     growth (rows vs the header's declared cell count) and feeds byte sizes
//     to the supervisor's stall detector — no worker-side protocol at all;
//   * partial results: on a timer, the surviving rows of all shards are
//     unioned via merge_checkpoints(allow-partial) into `partial_path`
//     (atomic rename; a failed write keeps the previous snapshot), usable as
//     a --resume checkpoint at any moment;
//   * the final merge runs with require_complete and the spec fingerprint
//     pinned, so a retry-exhausted swarm CANNOT silently present a partial
//     stream as complete — it fails loudly and points at the salvage path.
//
// Chaos injection (`chaos_kill_shard`) SIGKILLs one shard the first time its
// checkpoint holds >= chaos_after_rows durable rows: a deterministic
// mid-checkpoint crash for CI smoke tests, exercised through exactly the
// production restart path.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "swarm/supervisor.h"

namespace hydra::swarm {

struct SweepRunnerOptions {
  std::size_t shards = 2;
  /// The sweep command template (executable + its own flags).  The runner
  /// appends --shard/--out/--resume; the template must not set them.
  std::vector<std::string> worker_command;
  std::string dir;           ///< shard checkpoints + per-worker logs live here
  std::string out_path;      ///< final merged stream; "" = stdout
  std::string partial_path;  ///< periodic allow-partial merge target; "" = off
  double poll_interval_s = 0.25;   ///< must be finite and > 0 (validated)
  double merge_interval_s = 5.0;   ///< must be finite and > 0 (validated)
  SupervisorPolicy policy;
  /// Non-empty: pin every shard header (and the final merge) to this spec
  /// fingerprint.
  std::string expect_fingerprint;
  int chaos_kill_shard = -1;         ///< SIGKILL this shard once (see above)
  std::size_t chaos_after_rows = 1;  ///< ...once it has this many durable rows
};

/// What tailing one shard checkpoint revealed.
struct ShardProbe {
  bool exists = false;
  std::size_t bytes = 0;
  std::size_t durable_rows = 0;  ///< newline-terminated row lines (header excluded)
  std::optional<exp::SweepShardHeader> header;
};

/// Cheap single-pass probe: file size, durable (newline-terminated) row
/// count, and the shard header if present.  A torn trailing fragment is not
/// counted — it would be discarded by resume/merge anyway.
ShardProbe probe_shard_checkpoint(const std::string& path);

struct SweepRunResult {
  bool ok = false;
  std::size_t cells = 0;
  std::size_t rows = 0;
  std::size_t restarts = 0;
  std::string error;  ///< terminal failure description when !ok
};

class SweepRunner {
 public:
  /// `backend` and `log` are borrowed.  Throws std::invalid_argument on a
  /// malformed option set (no command, zero shards, missing dir).
  SweepRunner(SweepRunnerOptions options, ProcessBackend& backend, EventLog& log);

  /// Blocks until the swarm completes or fails.  `status` receives
  /// one-per-poll progress lines ("shard 2/3: 40/117 cells ...); pass a
  /// null-sink stream for quiet runs.  The merged stream is written to
  /// out_path (or stdout) only on success; throws std::runtime_error when
  /// that write fails.
  SweepRunResult run(std::ostream& status);

 private:
  SweepRunnerOptions options_;
  ProcessBackend& backend_;
  EventLog& log_;
};

}  // namespace hydra::swarm
