// Determinism and resume tests for the sweep layer:
//   * --jobs 1 and --jobs 8 produce byte-identical row and aggregate JSONL;
//   * resuming from a truncated checkpoint (a run killed mid-write)
//     reproduces the uninterrupted output byte for byte, also after the
//     replication count grew;
//   * a checkpoint that is not this spec's — no header, a foreign
//     fingerprint (another metric identity included) or shard position,
//     cell keys outside the grid, rows that disagree with the spec — throws
//     naming the file instead of being spliced or silently recomputed;
//   * JSONL rows round-trip exactly through parse_jsonl_row;
//   * row order, budget-skipped rows and no-instance rows of a plain sweep.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/aggregate.h"
#include "exp/batch.h"
#include "exp/sweep.h"
#include "gen/uav.h"
#include "gp/solver_registry.h"

namespace hexp = hydra::exp;

namespace {

/// A small but non-trivial grid: 3 utilization points × 4 instances ×
/// 3 schemes (including the exhaustive optimal, whose uneven per-cell cost
/// is what would expose ordering races under work stealing).
hexp::SweepSpec small_grid() {
  hexp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core", "optimal"};
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;
  config.max_sec_per_core = 2;
  spec.add_utilization_grid(config, {0.8, 1.4, 1.9});
  spec.replications = 4;
  spec.base_seed = 77;
  return spec;
}

std::string run_rows(hexp::SweepSpec spec) {
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  hexp::Sweep(std::move(spec)).run({&sink});
  return os.str();
}

/// What a --out of `spec` holds: the header, then the rows.
std::string run_checkpoint(hexp::SweepSpec spec) {
  const hexp::Sweep sweep(std::move(spec));
  std::ostringstream os;
  os << hexp::format_shard_header(sweep.shard_header()) << "\n";
  hexp::JsonlSink sink(os);
  sweep.run({&sink});
  return os.str();
}

/// The rows of a checkpoint, without its header line.
std::string rows_of(const std::string& checkpoint) {
  return checkpoint.substr(checkpoint.find('\n') + 1);
}

/// Expects constructing a Sweep over `spec` to throw std::runtime_error
/// whose message contains `path` and `what`.
void expect_refused(hexp::SweepSpec spec, const std::string& path, const std::string& what) {
  try {
    hexp::Sweep sweep(std::move(spec));
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

std::string run_aggregate(hexp::SweepSpec spec) {
  hexp::Aggregator aggregator;
  hexp::Sweep(std::move(spec)).run({&aggregator});
  std::ostringstream os;
  aggregator.write_jsonl(os);
  return os.str();
}

/// RAII temp file holding a (possibly truncated) checkpoint.
struct TempCheckpoint {
  std::string path;
  explicit TempCheckpoint(const std::string& content)
      : path(::testing::TempDir() + "hydra_sweep_checkpoint.jsonl") {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
  }
  ~TempCheckpoint() { std::remove(path.c_str()); }
};

}  // namespace

TEST(SweepDeterminism, RowsAreByteIdenticalAcrossJobCounts) {
  auto serial = small_grid();
  serial.jobs = 1;
  auto parallel = small_grid();
  parallel.jobs = 8;
  const auto rows1 = run_rows(serial);
  const auto rows8 = run_rows(parallel);
  EXPECT_FALSE(rows1.empty());
  EXPECT_EQ(rows1, rows8);
}

TEST(SweepDeterminism, AggregatesAreByteIdenticalAcrossJobCounts) {
  auto serial = small_grid();
  serial.jobs = 1;
  auto parallel = small_grid();
  parallel.jobs = 8;
  const auto agg1 = run_aggregate(serial);
  const auto agg8 = run_aggregate(parallel);
  EXPECT_FALSE(agg1.empty());
  EXPECT_EQ(agg1, agg8);
}

TEST(SweepDeterminism, GpBackendIsARowByteInput) {
  // The GP backend changes the numbers a sweep can produce, so it IS part of
  // the fingerprint — unlike jobs, which is plumbing.
  // The empty spelling and the explicit default name are the same
  // configuration and must collide (the fingerprint stamps the resolved
  // name), so upgrading old specs to name the backend never orphans
  // checkpoints.
  const auto fp_default = hexp::sweep_fingerprint(small_grid());
  auto named = small_grid();
  named.gp_backend = hydra::gp::kDefaultGpBackend;
  EXPECT_EQ(hexp::sweep_fingerprint(named), fp_default);

  auto ipm = small_grid();
  ipm.gp_backend = "ipm/filter";
  EXPECT_NE(hexp::sweep_fingerprint(ipm), fp_default);
}

TEST(SweepDeterminism, UnknownGpBackendIsRejectedAtConstruction) {
  // Typos fail fast with the catalog in the message, not mid-sweep.
  auto spec = small_grid();
  spec.gp_backend = "no-such-backend";
  try {
    const hexp::Sweep sweep(std::move(spec));
    FAIL() << "unknown gp_backend accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-backend"), std::string::npos);
  }
}

TEST(Batch, PerInstanceSeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(hexp::instance_seed(1, 0), hexp::instance_seed(1, 0));
  EXPECT_NE(hexp::instance_seed(1, 0), hexp::instance_seed(1, 1));
  EXPECT_NE(hexp::instance_seed(1, 0), hexp::instance_seed(2, 0));
  hexp::BatchSpec spec;
  spec.count = 5;
  spec.base_seed = 42;
  const auto items = hexp::enumerate(spec);
  ASSERT_EQ(items.size(), 5u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].index, i);
    EXPECT_EQ(items[i].seed, hexp::instance_seed(42, i));
  }
}

TEST(Batch, MaterializeIsAPureFunctionOfTheItem) {
  hexp::BatchSpec spec;
  spec.count = 3;
  spec.synthetic.num_cores = 2;
  spec.total_utilization = 1.0;
  const auto items = hexp::enumerate(spec);
  const auto once = hexp::materialize(spec, items[1]);
  const auto twice = hexp::materialize(spec, items[1]);
  ASSERT_TRUE(once.instance.has_value());
  ASSERT_TRUE(twice.instance.has_value());
  EXPECT_EQ(once.instance->rt_tasks.size(), twice.instance->rt_tasks.size());
  EXPECT_DOUBLE_EQ(once.rt_utilization, twice.rt_utilization);
}

TEST(Sweep, RejectsUnknownOrMissingSchemesUpFront) {
  auto spec = small_grid();
  spec.schemes = {"hydra", "definitely-not-registered"};
  EXPECT_THROW(hexp::Sweep{spec}, std::invalid_argument);
  spec.schemes = {};
  EXPECT_THROW(hexp::Sweep{spec}, std::invalid_argument);
}

TEST(Sweep, RowsArriveInstanceMajorThenSchemeOrder) {
  auto spec = small_grid();
  spec.schemes = {"hydra", "single-core"};
  spec.points.resize(1);
  spec.replications = 8;
  spec.jobs = 4;
  const auto summary = hexp::Sweep(std::move(spec)).run();
  ASSERT_EQ(summary.rows.size(), 16u);
  for (std::size_t i = 0; i < summary.rows.size(); ++i) {
    EXPECT_EQ(summary.rows[i].instance_index, i / 2);
    EXPECT_EQ(summary.rows[i].scheme, i % 2 == 0 ? "hydra" : "single-core");
  }
  EXPECT_EQ(summary.evaluated + summary.skipped + summary.errors, 16u);
}

TEST(Sweep, OverBudgetSchemesYieldSkippedRowsWithANote) {
  // The M = 8 UAV case has 8^6 = 262144 assignments, past the engine budget
  // of 4096: the exhaustive optimal is skipped while hydra (search space 1)
  // still runs.
  hexp::SweepSpec spec;
  spec.schemes = {"optimal", "hydra"};
  hexp::SweepPoint point;
  point.instance = hydra::gen::uav_case_study(8);
  spec.points.push_back(std::move(point));
  const auto summary = hexp::Sweep(std::move(spec)).run();
  ASSERT_EQ(summary.rows.size(), 2u);
  EXPECT_EQ(summary.rows[0].scheme, "optimal");
  EXPECT_EQ(summary.rows[0].status, "skipped");
  EXPECT_EQ(summary.rows[0].note, "search space exceeds the engine budget of 4096");
  EXPECT_EQ(summary.rows[1].scheme, "hydra");
  EXPECT_EQ(summary.rows[1].status, "ok") << summary.rows[1].note;
  EXPECT_EQ(summary.skipped, 1u);
}

TEST(Sweep, ImpossibleUtilizationYieldsNoInstanceRows) {
  // Utilization far beyond M: every draw fails Eq. (1); the sweep reports
  // each (instance, scheme) pair instead of aborting.
  hexp::SweepSpec spec;
  spec.schemes = {"hydra"};
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  spec.add_utilization_grid(config, {50.0});
  spec.replications = 2;
  spec.max_attempts = 2;
  const auto summary = hexp::Sweep(std::move(spec)).run();
  ASSERT_EQ(summary.rows.size(), 2u);
  for (const auto& row : summary.rows) {
    EXPECT_EQ(row.status, "no-instance");
    EXPECT_FALSE(row.feasible);
    EXPECT_FALSE(row.note.empty());
  }
  EXPECT_EQ(summary.errors, 2u);
}

TEST(Sweep, PresetInstancePointEvaluatesThatInstance) {
  hexp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core", "optimal"};
  hexp::SweepPoint point;
  point.instance = hydra::gen::uav_case_study(2);
  spec.points.push_back(std::move(point));
  const auto summary = hexp::Sweep(std::move(spec)).run();
  ASSERT_EQ(summary.rows.size(), 3u);
  for (const auto& row : summary.rows) {
    EXPECT_EQ(row.status, "ok") << row.scheme << ": " << row.note;
    EXPECT_TRUE(row.feasible) << row.scheme;
    EXPECT_TRUE(row.validated) << row.scheme;
  }
  EXPECT_EQ(summary.feasible, 3u);
}

TEST(SweepDeterminism, RowsRoundTripThroughParser) {
  const auto rows = run_rows(small_grid());
  std::ostringstream reserialized;
  hexp::JsonlSink sink(reserialized);
  std::istringstream in(rows);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    const auto row = hexp::parse_jsonl_row(line);
    ASSERT_TRUE(row.has_value()) << line;
    sink.row(*row);
    ++parsed;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_EQ(reserialized.str(), rows);
}

TEST(SweepResume, TruncatedCheckpointReproducesUninterruptedRunExactly) {
  const auto full = run_checkpoint(small_grid());
  ASSERT_FALSE(rows_of(full).empty());

  // Simulate a run killed mid-write: keep roughly 40% of the stream and cut
  // in the MIDDLE of the next line — the torn line must be discarded, its
  // cell re-evaluated.
  const std::size_t cut = full.find('\n', full.size() * 2 / 5);
  ASSERT_NE(cut, std::string::npos);
  const std::string truncated = full.substr(0, cut + 1 + 25);
  const TempCheckpoint checkpoint(truncated);

  auto resumed_spec = small_grid();
  resumed_spec.jobs = 4;
  resumed_spec.resume_path = checkpoint.path;
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  const auto summary = hexp::Sweep(std::move(resumed_spec)).run({&sink});

  EXPECT_GT(summary.resumed_cells, 0u);
  EXPECT_LT(summary.resumed_cells, summary.cells);
  EXPECT_EQ(os.str(), rows_of(full));
}

TEST(SweepResume, CorruptMiddleLineIsRejected) {
  // Only the final line of a checkpoint can be a torn write; a corrupt line
  // before it, or a row without a cell key, means the file is not what the
  // sweep wrote.  That used to be skipped silently (its cell recomputed); it
  // must throw, naming path:line.
  const auto full = run_checkpoint(small_grid());
  const std::size_t second = full.find('\n') + 1;  // the first row
  const std::size_t third = full.find('\n', second) + 1;
  ASSERT_LT(third, full.size());
  const auto expect_rejected = [](const std::string& content, const std::string& what) {
    const TempCheckpoint checkpoint(content);
    auto spec = small_grid();
    spec.resume_path = checkpoint.path;
    expect_refused(std::move(spec), checkpoint.path + ":2:", what);
  };
  // Line 2 torn in the middle of the file.
  expect_rejected(full.substr(0, second + 25) + "\n" + full.substr(third), "corrupt");
  // Line 2 blank in the middle of the file.
  expect_rejected(full.substr(0, second) + "\n" + full.substr(second), "corrupt");
  // Line 2 a well-formed row with an empty cell key.
  const std::size_t key = full.find("\"cell\":\"", second) + 8;
  const std::size_t key_end = full.find('"', key);
  expect_rejected(full.substr(0, key) + full.substr(key_end), "cell key");
  // Line 2 a row that parses but that the sweep would have written
  // differently (a trailing zero on a number).
  const std::size_t number = full.find("\"target_utilization\":0.8", second) + 24;
  expect_rejected(full.substr(0, number) + "0" + full.substr(number), "re-serialize");

  // A blank final line is tolerated like a torn one.
  auto spec = small_grid();
  const TempCheckpoint blank_tail(full + "\n");
  spec.resume_path = blank_tail.path;
  EXPECT_EQ(hexp::Sweep(std::move(spec)).run().resumed_cells, 12u);
}

TEST(SweepResume, CompleteCheckpointSkipsEveryCell) {
  const auto full = run_checkpoint(small_grid());
  const TempCheckpoint checkpoint(full);

  auto resumed_spec = small_grid();
  resumed_spec.resume_path = checkpoint.path;
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  const auto summary = hexp::Sweep(std::move(resumed_spec)).run({&sink});
  EXPECT_EQ(summary.resumed_cells, summary.cells);
  EXPECT_EQ(os.str(), rows_of(full));
}

TEST(SweepResume, GrowingReplicationsResumesTheOldCellsByteIdentically) {
  // Seeds are positional, so the replication count is outside the
  // fingerprint: a checkpoint of 2 replications per point seeds a run of 4,
  // which evaluates only the new instances and ends with a fresh run's bytes.
  auto fewer = small_grid();
  fewer.replications = 2;
  const TempCheckpoint checkpoint(run_checkpoint(fewer));

  auto grown = small_grid();
  grown.resume_path = checkpoint.path;
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  const auto summary = hexp::Sweep(std::move(grown)).run({&sink});
  EXPECT_EQ(summary.resumed_cells, 3u * 2u);
  EXPECT_EQ(summary.cells, 3u * 4u);
  EXPECT_EQ(os.str(), run_rows(small_grid()));

  // Shrinking is not resuming: the old file's extra cells are outside the grid.
  const TempCheckpoint more(run_checkpoint(small_grid()));
  auto shrunk = small_grid();
  shrunk.replications = 2;
  shrunk.resume_path = more.path;
  expect_refused(std::move(shrunk), more.path, "outside");
}

TEST(SweepResume, HeaderlessCheckpointIsRefusedButMissingOrEmptyIsAColdStart) {
  // A checkpoint without a header (a file from before every --out carried
  // one) cannot show which spec wrote it, so it is refused, not trusted.
  const auto full = run_checkpoint(small_grid());
  const TempCheckpoint headerless(rows_of(full));
  auto spec = small_grid();
  spec.resume_path = headerless.path;
  expect_refused(std::move(spec), headerless.path + ":1:", "header");

  const TempCheckpoint empty("");
  auto cold = small_grid();
  cold.resume_path = empty.path;
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  EXPECT_EQ(hexp::Sweep(std::move(cold)).run({&sink}).resumed_cells, 0u);
  EXPECT_EQ(os.str(), rows_of(full));
}

TEST(SweepResume, CheckpointFromDifferentSeedIsRejected) {
  const TempCheckpoint checkpoint(run_checkpoint(small_grid()));

  auto other = small_grid();
  other.base_seed = 78;  // different instances ⇒ every cached cell is stale
  other.resume_path = checkpoint.path;
  expect_refused(std::move(other), checkpoint.path, "fingerprint");
}

TEST(SweepResume, CheckpointWithFewerSchemesIsRejected) {
  auto partial_spec = small_grid();
  partial_spec.schemes = {"hydra", "single-core"};  // no optimal rows
  const TempCheckpoint checkpoint(run_checkpoint(partial_spec));

  auto resumed_spec = small_grid();  // wants hydra, single-core AND optimal
  resumed_spec.resume_path = checkpoint.path;
  expect_refused(std::move(resumed_spec), checkpoint.path, "fingerprint");
}

TEST(SweepResume, CheckpointOfAnotherMetricIdentityIsRejected) {
  // Two metric families with the same names but different parameters (fig5
  // --trials 50 vs 100) write rows that differ only in their values.  The
  // checkpoint of one must not resume the other; before every --out carried
  // the fingerprint, it resumed every cell.
  const auto metric = [](double scale) {
    hexp::RowMetric row_metric;
    row_metric.name = "scaled_tightness";
    row_metric.identity = "scale=" + hexp::format_double(scale);
    row_metric.compute = [scale](const hydra::core::Instance&,
                                 const hydra::core::DesignPoint& point) {
      return scale * point.cumulative_tightness;
    };
    return row_metric;
  };
  auto fifty = small_grid();
  fifty.metrics = {metric(50)};
  const TempCheckpoint checkpoint(run_checkpoint(fifty));

  auto hundred = small_grid();
  hundred.metrics = {metric(100)};
  hundred.resume_path = checkpoint.path;
  expect_refused(std::move(hundred), checkpoint.path, "different sweep spec");
}

TEST(SweepResume, RowsDisagreeingWithAMatchingFingerprintAreCorruption) {
  // Under a matching fingerprint the rows are the spec's; a complete cell
  // whose rows say otherwise (here: another seed) is a corrupt file, not a
  // cell to recompute quietly.
  auto full = run_checkpoint(small_grid());
  const std::size_t second = full.find('\n') + 1;
  const std::size_t seed = full.find("\"seed\":", second) + 7;
  full[seed] = full[seed] == '1' ? '2' : '1';
  const TempCheckpoint checkpoint(full);
  auto spec = small_grid();
  spec.resume_path = checkpoint.path;
  expect_refused(std::move(spec), checkpoint.path, "corrupt");

  // A cell with fewer rows than schemes was torn by a kill and is simply
  // re-evaluated, wherever it sits in the file.
  const auto clean = run_checkpoint(small_grid());
  const std::size_t third = clean.find('\n', second) + 1;
  const TempCheckpoint gap(clean.substr(0, second) + clean.substr(third));
  auto regap = small_grid();
  regap.resume_path = gap.path;
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  EXPECT_EQ(hexp::Sweep(std::move(regap)).run({&sink}).resumed_cells, 11u);
  EXPECT_EQ(os.str(), rows_of(clean));
}

TEST(SweepResume, MissingCheckpointIsAColdStart) {
  auto spec = small_grid();
  spec.resume_path = ::testing::TempDir() + "does_not_exist_hydra.jsonl";
  const auto summary = hexp::Sweep(std::move(spec)).run();
  EXPECT_EQ(summary.resumed_cells, 0u);
  EXPECT_EQ(summary.cells, 12u);  // 3 points × 4 replications
}

TEST(SweepResume, AnUnreadableCheckpointIsAnErrorNotAColdStart) {
  // Only a path that does not exist is a cold start.  A directory opens like
  // a file and then fails its first read; that used to look like an empty
  // checkpoint and silently recompute every cell.
  const std::string dir = ::testing::TempDir() + "hydra_resume_dir";
  std::filesystem::create_directories(dir);
  auto spec = small_grid();
  spec.resume_path = dir;
  expect_refused(std::move(spec), dir, "");
  std::filesystem::remove_all(dir);
}

TEST(SweepResume, ForeignCellKeysAreALoudErrorNotASilentRecompute) {
  // Regression: a checkpoint whose cells are not even part of this spec's
  // grid means the caller resumed the wrong file (or edited the grid).  That
  // used to fall through to "0 cells resumed, recompute everything" —
  // indistinguishable from a cold start.  It must throw, naming the key.
  auto full = run_checkpoint(small_grid());
  const auto at = full.find("\"cell\":\"p0:");
  ASSERT_NE(at, std::string::npos);
  full.replace(at, std::string("\"cell\":\"p0:").size(), "\"cell\":\"p9:");
  const TempCheckpoint checkpoint(full);

  auto spec = small_grid();
  spec.resume_path = checkpoint.path;
  expect_refused(spec, "p9:", "outside");
  expect_refused(std::move(spec), checkpoint.path, "outside");
}

TEST(SweepResume, ShardHeaderFromDifferentSpecIsRejected) {
  // The header pins the spec fingerprint; resuming a checkpoint whose
  // header disagrees (here: a different base seed) must throw up front.
  auto other = small_grid();
  other.base_seed = 123;
  other.shard_count = 2;
  const auto foreign_header =
      hexp::format_shard_header(hexp::Sweep(std::move(other)).shard_header());
  const TempCheckpoint checkpoint(foreign_header + "\n");

  auto spec = small_grid();
  spec.shard_count = 2;
  spec.resume_path = checkpoint.path;
  expect_refused(std::move(spec), checkpoint.path, "fingerprint");
}

TEST(SweepResume, ShardHeaderFromWrongShardPositionIsRejected) {
  // Same sweep, wrong shard: shard 1's checkpoint must not seed shard 0 (its
  // cells would all be foreign) nor an unsharded run pretending to be whole.
  auto shard1 = small_grid();
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  const auto header =
      hexp::format_shard_header(hexp::Sweep(std::move(shard1)).shard_header());
  const TempCheckpoint checkpoint(header + "\n");

  auto shard0 = small_grid();
  shard0.shard_count = 2;  // shard 0 of 2
  shard0.resume_path = checkpoint.path;
  expect_refused(std::move(shard0), checkpoint.path, "shard");

  auto unsharded = small_grid();
  unsharded.resume_path = checkpoint.path;
  expect_refused(std::move(unsharded), checkpoint.path, "shard");
}

TEST(SweepResume, OwnShardCheckpointStillResumesExactly) {
  // The happy sharded path: a shard writes header + rows, dies, and its own
  // resume reproduces the uninterrupted shard output byte for byte.
  auto spec = small_grid();
  spec.shard_index = 1;
  spec.shard_count = 2;
  const auto full = run_checkpoint(spec);
  const auto rows = rows_of(full);
  ASSERT_FALSE(rows.empty());

  // Keep the header and the first complete cell: one row per scheme,
  // emitted contiguously.
  std::size_t cut = std::string::npos;
  for (std::size_t line = 0, pos = 0; line < 4; ++line) {
    cut = full.find('\n', pos);
    ASSERT_NE(cut, std::string::npos);
    pos = cut + 1;
  }
  const TempCheckpoint checkpoint(full.substr(0, cut + 1));

  auto resumed_spec = spec;
  resumed_spec.resume_path = checkpoint.path;
  std::ostringstream resumed;
  hexp::JsonlSink resumed_sink(resumed);
  const auto summary = hexp::Sweep(std::move(resumed_spec)).run({&resumed_sink});
  EXPECT_EQ(summary.resumed_cells, 1u);
  EXPECT_EQ(resumed.str(), rows);
}
