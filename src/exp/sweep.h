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
//     a previous (possibly killed mid-run) invocation of the same spec; its
//     complete cells are spliced in verbatim instead of re-evaluated, and
//     the final output is byte-identical to an uninterrupted run.
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
  std::vector<RowMetric> metrics;     ///< extra per-row metric hooks
  /// JSONL checkpoint of a previous invocation of this spec; completed cells
  /// are spliced in instead of re-evaluated.  "" (or a missing or empty
  /// file) means a cold start.
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

/// The cell key stamped on every row: "p<point>:<label>:i<instance>".
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

/// What a row's bytes mean.  It opens every sweep_fingerprint, so bumping it
/// makes every checkpoint of the old rows refuse to resume or merge.  Bump it
/// in any change that moves row bytes; test_sweep_golden pins it next to the
/// digest of tests/corpus/golden_cells.jsonl to catch a re-record without one.
inline constexpr const char* kRowSemanticsVersion = "hydra-sweep-v1";

/// Stable fingerprint of everything that determines a cell's row bytes:
/// kRowSemanticsVersion, schemes (in order), every point's label and source
/// (preset instances down to their task parameters, workload files down to
/// their content), base_seed, max_attempts, the search-space budget
/// (core::kDefaultOptimalBudget, written as "budget=4096"), the metric
/// names + identities (RowMetric::identity), and the resolved GP backend.
/// Execution plumbing (jobs, resume, shard position) is excluded, and so is
/// the replication count: seeds are positional, so a cell's rows do not
/// depend on how many replications follow it.  All shards of one logical
/// sweep share the fingerprint, which is how resume and merge refuse rows of
/// a different spec.  Expects defaulted point labels (i.e. a `Sweep::spec()`,
/// not a raw user spec).
std::string sweep_fingerprint(const SweepSpec& spec);

/// The first line of every sweep JSONL file (the checkpoint format):
///
///   {"hydra_sweep_shard":{"fingerprint":"...","shard":0,"shards":3,
///    "grid_cells":351,"schemes":["hydra","single-core"]}}
///
/// An unsharded run and a merge are shard 0 of 1.  `grid_cells` counts the
/// (point, instance) units of the whole grid, the same in every shard, so a
/// merge can prove it is complete.  parse_jsonl_row rejects the line
/// (unknown key), so it can never be taken for a row.
struct SweepShardHeader {
  std::string fingerprint;
  std::size_t shard = 0;
  std::size_t shards = 1;
  std::size_t grid_cells = 0;
  std::vector<std::string> schemes;
};

std::string format_shard_header(const SweepShardHeader& header);

/// Strict inverse of format_shard_header: nullopt for any line that
/// format_shard_header would not write byte for byte, ordinary rows included.
std::optional<SweepShardHeader> parse_shard_header(const std::string& line);

/// One row of a checkpoint file and the exact line it was read from.
struct CheckpointRow {
  BatchRow row;
  std::string line;
};

/// A sweep checkpoint file as read back.
struct SweepCheckpoint {
  SweepShardHeader header;
  std::vector<CheckpointRow> rows;  ///< file order
  bool torn_tail = false;           ///< an unparseable final line was dropped
};

/// The one reader of sweep checkpoints, for --resume and hydra_merge alike.
/// nullopt when nothing exists at `path` or the file is empty.  Otherwise
/// line 1 must be a header and every later line a row that carries a cell
/// key and re-serializes to exactly its own bytes.  Only the final line may
/// fail to parse: it is the write in flight when a run died, and it is
/// dropped.  Anything else (an unreadable path, a missing header, a second
/// header, a corrupt or non-canonical row) throws std::runtime_error naming
/// the file.
std::optional<SweepCheckpoint> read_sweep_checkpoint(const std::string& path);

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
  /// missing or empty checkpoint is a cold start.  Any other file must be a
  /// checkpoint of this spec: a header with this fingerprint, written by
  /// this shard or by a whole run or merge (shard 0 of 1).  A cell with fewer
  /// rows than schemes was torn by a kill and is re-evaluated; every other
  /// cell is spliced verbatim.  A checkpoint of another spec, a cell outside
  /// the grid, or a cell whose rows disagree with the spec throws
  /// std::runtime_error naming the file.
  explicit Sweep(SweepSpec spec);

  /// Runs the whole grid, streaming rows to every sink in stable order.
  /// Sinks are invoked from the coordinating thread only.
  SweepSummary run(const std::vector<ResultSink*>& sinks = {}) const;

  /// The spec with defaulted labels filled in (what cell keys are built from).
  const SweepSpec& spec() const { return spec_; }

  /// sweep_fingerprint of the defaulted spec.
  std::string fingerprint() const { return sweep_fingerprint(spec_); }

  /// The header that opens this run's JSONL checkpoint (make_file_sink's
  /// header argument).
  SweepShardHeader shard_header() const;

 private:
  SweepSpec spec_;
  /// The complete checkpointed cells to splice, by cell key.
  std::map<std::string, std::vector<BatchRow>> checkpoint_;
};

}  // namespace hydra::exp
