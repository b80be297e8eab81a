// The sweep layer: one declarative SweepSpec crossing schemes × grid points ×
// replications, evaluated as a single work-stealing job queue.
//
// A sweep covers the paper-style evaluation grids (Figs. 1–3: utilization ×
// scheme × core count) down to one-point, one-instance queries.  Properties
// the benches and the regression harness rely on:
//
//   * One queue, no per-point barrier — a worker that finishes the last
//     instance of point 3 immediately steals an instance of point 7, so a
//     slow cell (the exhaustive optimal at high utilization) never idles the
//     pool the way per-point runs would.
//   * Determinism — every (point, instance) unit derives its seed from
//     (base_seed, point index, instance index) alone and evaluation is pure,
//     so the row stream is byte-identical for any --jobs value.
//   * Stable order — rows reach the sinks point-major, instance-minor, then
//     scheme order, via a reorder buffer.
//   * Resumability — every row is stamped with a deterministic cell key
//     ("p<point>:<label>:i<instance>").  `resume_path` points at the JSONL of
//     a previous (possibly killed mid-run) invocation; cells whose full
//     scheme row-set is present and matches the spec are spliced in verbatim
//     instead of re-evaluated, and the final output is byte-identical to an
//     uninterrupted run.
//   * Shardability — `shard_index`/`shard_count` restrict a run to the cells
//     `sweep_shard_of` assigns to that shard.  The partition is a pure
//     function of the cell key, so shards are disjoint, exhaustive, and
//     independent of `--jobs`; N shard outputs merged by cell key
//     (exp/merge.h, tools/hydra_merge) are byte-identical to one
//     single-process run.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "exp/engine.h"

namespace hydra::exp {

/// One grid point of a sweep.  Exactly one source applies, checked in this
/// order: a preset `instance` (case studies), a `files` list (workload
/// corpora), else `replications` synthetic draws at `total_utilization`.
struct SweepPoint {
  std::string label;                       ///< "" = auto ("m=<M> u=<U>", ...)
  gen::SyntheticConfig synthetic;          ///< synthetic-source configuration
  double total_utilization = 1.0;          ///< RT + security target (synthetic)
  std::vector<std::string> files;          ///< file source, overrides synthetic
  std::optional<core::Instance> instance;  ///< preset source, overrides both
};

struct SweepSpec {
  /// Registry names evaluated per instance, in this order.
  std::vector<std::string> schemes = {"hydra", "single-core"};
  std::vector<SweepPoint> points;
  std::size_t replications = 1;   ///< synthetic instances per point
  std::uint64_t base_seed = 1;    ///< sweep-level seed
  int max_attempts = 64;          ///< Eq. (1) redraw budget per instance
  std::size_t jobs = 1;           ///< worker threads; 0 = hardware concurrency
  /// Per-scheme search-space skip budget (core::over_search_budget).
  std::size_t optimal_budget = core::kDefaultOptimalBudget;
  std::vector<RowMetric> metrics;     ///< extra per-row metric hooks
  /// JSONL checkpoint of a previous invocation; completed cells are spliced
  /// in instead of re-evaluated.  "" (or a missing file) means a cold start.
  std::string resume_path;
  /// Multi-process sharding: this run evaluates only the cells
  /// `sweep_shard_of` maps to `shard_index` out of `shard_count`.  The
  /// default (0 of 1) is an unsharded run.  Sharding never changes a cell's
  /// key, seed, or bytes — only which process computes it.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// GP solver backend (gp::SolverRegistry name) every cell's GP solves run
  /// through, installed as a gp::GpBackendScope around each unit.  "" means
  /// the registry default (scp/barrier).  Unlike jobs/resume/sharding this IS
  /// a row-byte input — two runs solving with different backends can land on
  /// different KKT points — so the RESOLVED name is stamped into
  /// sweep_fingerprint and differently-solved checkpoints refuse to merge.
  std::string gp_backend;

  /// Appends a synthetic grid point per utilization value — the Fig. 2/3
  /// "sweep total utilization on platform `config`" idiom in one call.
  void add_utilization_grid(const gen::SyntheticConfig& config,
                            const std::vector<double>& utilizations);

  /// Appends one file-sourced point for a workload corpus (see
  /// expand_workload_files for the directory/glob semantics).
  void add_corpus_point(const std::string& path_or_glob, std::string label = "");
};

/// The paper's utilization axis: `steps` equally spaced multiples of
/// `increment`·M, i.e. {1·inc·M, …, steps·inc·M} (Fig. 2: 39 steps of
/// 0.025·M).
std::vector<double> utilization_axis(std::size_t num_cores, std::size_t steps = 39,
                                     double increment = 0.025);

/// The deterministic per-point seed: one more splitmix64 level above
/// instance_seed, so point p's instance k never collides with point q's.
std::uint64_t sweep_point_seed(std::uint64_t base_seed, std::size_t point_index);

/// The cell key stamped on every row: "p<point>:<label>:i<instance>".  The
/// resume loader only splices a checkpointed cell whose key, seed, labels and
/// scheme set all match the current spec, so editing the spec invalidates
/// exactly the cells it changes.
std::string sweep_cell_key(std::size_t point_index, const std::string& point_label,
                           std::size_t instance_index);

/// Deterministic shard assignment of one cell: FNV-1a over the key bytes,
/// mod `shard_count`.  A pure function of the key alone — no dependence on
/// --jobs, enumeration order, or process — so for any N the shard cell-key
/// sets are disjoint and exhaustive by construction.
std::size_t sweep_shard_of(const std::string& cell_key, std::size_t shard_count);

/// One shard out of N, as given on a command line.
struct ShardRef {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Parses the CLI `--shard i/N` syntax (0-based, e.g. "0/3", "2/3"; "0/1" is
/// the unsharded default).  Throws std::invalid_argument on anything else,
/// including i >= N.
ShardRef parse_shard_spec(const std::string& text);

/// Stable fingerprint of everything that determines a sweep's row bytes:
/// schemes (in order), every point's label and source (preset instances
/// down to their task parameters, workload files down to their content),
/// replications, base_seed, max_attempts, optimal_budget, the metric
/// names + identities (RowMetric::identity), and the resolved GP backend.
/// Sharding and job/resume plumbing are deliberately excluded — all shards
/// of one logical sweep share the fingerprint, which is how the merge tool
/// refuses to union checkpoints from different specs.  Expects
/// defaulted point labels (i.e. a `Sweep::spec()`, not a raw user spec).
std::string sweep_fingerprint(const SweepSpec& spec);

/// The self-description line a sharded run prepends to its JSONL checkpoint:
///
///   {"hydra_sweep_shard":{"fingerprint":"...","shard":0,"shards":3,
///    "cells":117,"schemes":["hydra","single-core"]}}
///
/// `cells` is the number of (point, instance) units assigned to the shard,
/// so the merge tool can prove a shard set is complete.  parse_jsonl_row
/// rejects the line (unknown key), which is what lets the resume loader skip
/// it transparently.
struct SweepShardHeader {
  std::string fingerprint;
  std::size_t shard = 0;
  std::size_t shards = 1;
  std::size_t cells = 0;
  std::vector<std::string> schemes;
};

std::string format_shard_header(const SweepShardHeader& header);

/// Strict inverse of format_shard_header (we are the only producer); returns
/// nullopt for anything else, including ordinary row lines.
std::optional<SweepShardHeader> parse_shard_header(const std::string& line);

/// Reads the first line of `path` and parses it as a shard header; nullopt
/// when the file is missing, empty, or starts with a plain row.
std::optional<SweepShardHeader> read_shard_header(const std::string& path);

/// Reads a checkpoint file's lines.  nullopt only when nothing exists at
/// `path`; anything else that cannot be read (a directory, a read error)
/// throws std::runtime_error naming the path.
std::optional<std::vector<std::string>> read_checkpoint_lines(const std::string& path);

/// Parses a JSONL checkpoint into rows grouped by cell key, tolerating a
/// shard header on line 1 and a torn or blank final line (the row that was
/// mid-write when the run died).  Any other unparseable line, and a row
/// without a cell key, throws std::runtime_error naming `path:line`.  A
/// missing file yields an empty map — "resume from nothing" is a cold start,
/// so the same command line works for the first and the Nth attempt — but a
/// path that exists and cannot be read throws (read_checkpoint_lines).
std::map<std::string, std::vector<BatchRow>> load_sweep_checkpoint(
    const std::string& path);

struct SweepSummary {
  std::size_t points = 0;         ///< grid points in the spec
  std::size_t cells = 0;          ///< (point, instance) units
  std::size_t resumed_cells = 0;  ///< units spliced from the checkpoint
  std::size_t evaluated = 0;      ///< rows with status "ok"
  std::size_t feasible = 0;       ///< ok rows with a feasible, validated result
  std::size_t skipped = 0;        ///< rows with status "skipped"
  std::size_t errors = 0;         ///< rows with status "error" or "no-instance"
  double wall_ms = 0.0;
  std::vector<BatchRow> rows;     ///< every row, in emission order
};

class Sweep {
 public:
  /// Validates the spec up front (scheme names against the registry, at least
  /// one point, a non-zero replication count, shard_index < shard_count) and
  /// assigns the default labels, so cell keys are fixed from construction on.
  /// Throws std::invalid_argument.
  ///
  /// The resume checkpoint (if any) is read HERE, not in run() — so callers
  /// may pass the same path as checkpoint and output file: construct the
  /// Sweep first, then open the (truncating) output sink, then run.  A
  /// checkpoint that provably belongs to a different run — a cell key outside
  /// the spec's grid, or a shard header whose fingerprint or shard position
  /// does not match — throws std::runtime_error instead of silently
  /// recomputing: resuming the wrong file is a misconfiguration, not a cold
  /// start.
  explicit Sweep(SweepSpec spec);

  /// Runs the whole grid, streaming rows to every sink in stable order.
  /// Sinks are invoked from the coordinating thread only.
  SweepSummary run(const std::vector<ResultSink*>& sinks = {}) const;

  /// The spec with defaulted labels filled in (what cell keys are built from).
  const SweepSpec& spec() const { return spec_; }

  /// sweep_fingerprint of the defaulted spec.
  std::string fingerprint() const { return sweep_fingerprint(spec_); }

  /// The header describing this run's shard (cells = units this shard owns).
  /// Callers writing a sharded checkpoint prepend format_shard_header of this
  /// to the JSONL output (make_file_sink's header argument).
  SweepShardHeader shard_header() const;

 private:
  /// Every cell key of the FULL grid, in emission order (all shards).
  std::vector<std::string> all_cell_keys() const;

  SweepSpec spec_;
  std::map<std::string, std::vector<BatchRow>> checkpoint_;
};

}  // namespace hydra::exp
