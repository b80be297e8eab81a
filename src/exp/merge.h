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
// The merge contract (locked down by tests/test_merge_checkpoints.cpp and
// tests/test_sweep_shard.cpp):
//
//   * order-insensitive — shard files and the lines inside them may arrive
//     in any order (interleaved, reversed, reordered); the output is always
//     canonical grid order (point-major, instance-minor, scheme order from
//     the shard header);
//   * idempotent — merging the same shard (or an already-merged file's
//     cells) twice coalesces byte-identical duplicates and counts them;
//   * loud on conflicts — two rows for the same (cell, scheme) with
//     different bytes, a fingerprint mismatch between shard headers, or a
//     corrupt line in the middle of a file throw std::runtime_error; cells
//     are never silently dropped or overwritten;
//   * tolerant of torn tails — an unparseable FINAL line is the write that
//     was in flight when a shard died; it is discarded and counted, exactly
//     like the resume loader does.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace hydra::exp {

struct MergeOptions {
  /// When true (the default), the merge must prove it reconstructs the FULL
  /// grid: every input carries a shard header, the headers' shard indices
  /// cover 0..shards-1, the declared per-shard cell counts sum to the number
  /// of distinct merged cells, and every cell holds one row per scheme.
  /// Disable (hydra_merge --allow-partial) to union whatever is present —
  /// e.g. to turn the surviving shards of a crashed fleet into a --resume
  /// checkpoint.
  bool require_complete = true;
  /// Non-empty: every input must open with a shard header carrying exactly
  /// this spec fingerprint (hydra_merge --expect-fingerprint, for pipelines
  /// that know their spec); a headerless input throws, since its rows could
  /// not be checked.
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
  /// Representative shard header (fingerprint / shards / schemes are
  /// validated to agree across inputs); nullopt when no input had one.
  std::optional<SweepShardHeader> header;
  std::size_t shard_files = 0;     ///< input files consumed
  std::size_t rows = 0;            ///< row lines in the merged output
  std::size_t duplicate_rows = 0;  ///< byte-identical repeated rows coalesced
  std::size_t torn_lines = 0;      ///< unparseable trailing fragments discarded
  /// True when the merge provably reconstructs the full grid (every input
  /// carries a header, shard indices cover 0..shards-1, declared cell counts
  /// sum to the distinct merged cells, every cell has one row per scheme).
  /// With `require_complete` an incomplete merge throws instead, so a
  /// returned result has complete == true; with allow-partial this flag is
  /// how callers — scripts driving `hydra_merge --allow-partial`/`--check` —
  /// distinguish "done" from "partial but consistent" without a second pass
  /// over the files.
  bool complete = false;
  /// Empty when complete; else the first completeness hole found (the same
  /// message require_complete would have thrown).
  std::string incomplete_reason;
};

/// Merges the given checkpoint files.  Throws std::runtime_error on missing
/// files, corrupt non-trailing lines, rows without a cell key, conflicting
/// duplicates, header disagreements, and (with require_complete) any hole in
/// the reconstructed grid.
MergeResult merge_checkpoints(const std::vector<std::string>& paths,
                              const MergeOptions& options = {});

/// Writes the merged rows (no header line — a merged file IS the unsharded
/// stream) to `out`.
void write_merged(const MergeResult& result, std::ostream& out);

}  // namespace hydra::exp
