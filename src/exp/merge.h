// Checkpoint merging: the union of per-shard sweep checkpoints, keyed by
// cell, back into the single JSONL stream a one-process run would have
// written.  This is the seam every distributed backend (job arrays,
// containers, one machine per shard) rides on: run N processes with
// `--shard i/N`, then
//
//     hydra_merge --out merged.jsonl shard0.jsonl ... shardN-1.jsonl
//
// and `merged.jsonl` is byte-identical to the unsharded `--jobs 1` output —
// usable as a `--resume` checkpoint, an aggregation input, or a regression
// artifact.
//
// Every input is a sweep checkpoint read through read_sweep_checkpoint
// (exp/sweep.h), the same reader --resume uses, so it opens with a header.
// The merge contract (locked down by tests/test_merge_checkpoints.cpp and
// tests/test_sweep_shard.cpp):
//
//   * one spec — every header carries the same fingerprint, so every row
//     comes from the same spec; shard positions do not matter, so shard
//     files, merged files and partial merges combine freely;
//   * order-insensitive — files and the lines inside them may arrive in any
//     order; the output is always canonical grid order (point-major,
//     instance-minor, scheme order from the header), under a shard 0/1
//     header, exactly the unsharded run's --out;
//   * idempotent — merging the same shard (or an already-merged file's
//     cells) twice coalesces byte-identical duplicates and counts them;
//   * loud on conflicts — two rows for the same (cell, scheme) with
//     different bytes, a fingerprint mismatch, or anything the reader
//     refuses throw std::runtime_error; cells are never silently dropped
//     or overwritten;
//   * complete only when proven — every header agrees on `grid_cells`, the
//     distinct merged cells number exactly that, and every cell has one row
//     per scheme;
//   * tolerant of torn tails — an unparseable FINAL line is the write that
//     was in flight when a shard died; it is discarded and counted, exactly
//     like the resume loader does.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace hydra::exp {

struct MergeOptions {
  /// When true (the default), the merge must prove it reconstructs the FULL
  /// grid (the completeness rule above).  Disable (hydra_merge --allow-partial) to union whatever is present —
  /// e.g. to turn the surviving shards of a crashed fleet into a --resume
  /// checkpoint.
  bool require_complete = true;
  /// Non-empty: every input's header must carry exactly this spec
  /// fingerprint (hydra_merge --expect-fingerprint, for pipelines that know
  /// their spec).
  std::string expect_fingerprint;
};

/// One merged (point, instance) unit: its rows as raw JSONL lines in
/// canonical scheme order.  Raw bytes, not re-serialized rows — the merge
/// can never introduce a formatting drift of its own.
struct MergedCell {
  std::string key;
  std::size_t point_index = 0;
  std::size_t instance_index = 0;
  std::vector<std::string> lines;
};

struct MergeResult {
  std::vector<MergedCell> cells;  ///< canonical grid order
  /// The merged file's header: the inputs' fingerprint and schemes as shard
  /// 0 of 1, with the largest `grid_cells` any input declared.
  SweepShardHeader header;
  std::size_t shard_files = 0;     ///< input files consumed
  std::size_t rows = 0;            ///< row lines in the merged output
  std::size_t duplicate_rows = 0;  ///< byte-identical repeated rows coalesced
  std::size_t torn_lines = 0;      ///< unparseable trailing fragments discarded
  /// True when the merge provably reconstructs the full grid (the
  /// completeness rule above).  With `require_complete` an incomplete merge throws instead, so a
  /// returned result has complete == true; with allow-partial this flag is
  /// how callers — scripts driving `hydra_merge --allow-partial`/`--check` —
  /// distinguish "done" from "partial but consistent" without a second pass
  /// over the files.
  bool complete = false;
  /// Empty when complete; else the first completeness hole found (the same
  /// message require_complete would have thrown).
  std::string incomplete_reason;
};

/// Merges the given checkpoint files.  Throws std::runtime_error on a
/// missing or empty file, anything read_sweep_checkpoint refuses,
/// conflicting duplicates, a fingerprint or scheme-list disagreement, and
/// (with require_complete) any hole in the reconstructed grid.
MergeResult merge_checkpoints(const std::vector<std::string>& paths,
                              const MergeOptions& options = {});

/// Writes the merged header, then the rows, to `out` — the unsharded run's
/// --out byte for byte when the merge is complete.
void write_merged(const MergeResult& result, std::ostream& out);

}  // namespace hydra::exp
