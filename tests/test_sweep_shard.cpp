// Differential determinism suite for sharded multi-process sweeps: running
// the same grid as N shard processes (any N, any per-shard --jobs) and
// merging the checkpoints must be byte-identical to the single-process
// --jobs 1 run — on the raw row stream, on the aggregate JSONL, and against
// the committed golden corpus.  Also pins the partition properties the
// guarantee rests on: shard cell-key sets are disjoint and exhaustive, pure
// functions of the key bytes alone.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/aggregate.h"
#include "exp/merge.h"
#include "exp/metrics.h"
#include "exp/sweep.h"

namespace hexp = hydra::exp;

namespace {

const std::string kCorpusDir = std::string(HYDRA_SOURCE_DIR) + "/tests/corpus";
const std::string kGoldenPath = kCorpusDir + "/golden_cells.jsonl";

/// Same shape as test_sweep_determinism's grid (3 points × replications ×
/// 3 schemes including the uneven-cost exhaustive optimal), sized down so the
/// whole differential matrix stays in the fast label.
hexp::SweepSpec shard_grid(std::size_t replications = 3) {
  hexp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core", "optimal"};
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;
  config.max_sec_per_core = 2;
  spec.add_utilization_grid(config, {0.8, 1.4, 1.9});
  spec.replications = replications;
  spec.base_seed = 77;
  return spec;
}

/// The golden-corpus sweep, exactly as test_sweep_golden runs it.
hexp::SweepSpec corpus_spec() {
  hexp::SweepSpec spec;
  spec.schemes = {"hydra",   "single-core",  "optimal",
                  "contego", "period-adapt", "util/worst-fit"};
  spec.add_corpus_point(kCorpusDir, "corpus");
  return spec;
}

std::string run_rows(hexp::SweepSpec spec) {
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  hexp::Sweep(std::move(spec)).run({&sink});
  return os.str();
}

/// What an unsharded --out of `spec` holds: the shard 0/1 header, then rows.
std::string run_file(hexp::SweepSpec spec) {
  const hexp::Sweep sweep(std::move(spec));
  std::ostringstream os;
  os << hexp::format_shard_header(sweep.shard_header()) << "\n";
  hexp::JsonlSink sink(os);
  sweep.run({&sink});
  return os.str();
}

/// RAII shard-checkpoint directory: runs every shard of `spec` (each with its
/// own worker count) and writes header-stamped per-shard JSONL files.
struct ShardFiles {
  std::vector<std::string> paths;

  ShardFiles(const hexp::SweepSpec& base, std::size_t shards,
             const std::string& tag) {
    for (std::size_t s = 0; s < shards; ++s) {
      auto spec = base;
      spec.shard_index = s;
      spec.shard_count = shards;
      spec.jobs = 1 + (s % 3);  // determinism must not depend on --jobs
      const hexp::Sweep sweep(std::move(spec));
      const auto path = ::testing::TempDir() + "hydra_shard_" + tag + "_" +
                        std::to_string(s) + "of" + std::to_string(shards) +
                        ".jsonl";
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << hexp::format_shard_header(sweep.shard_header()) << "\n";
      hexp::JsonlSink sink(out);
      sweep.run({&sink});
      paths.push_back(path);
    }
  }
  ~ShardFiles() {
    for (const auto& path : paths) std::remove(path.c_str());
  }
};

std::string merge_to_string(const std::vector<std::string>& paths,
                            const hexp::MergeOptions& options = {}) {
  const auto merged = hexp::merge_checkpoints(paths, options);
  std::ostringstream os;
  hexp::write_merged(merged, os);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::set<std::string> cell_keys_of(const std::string& jsonl) {
  std::set<std::string> keys;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    const auto row = hexp::parse_jsonl_row(line);
    if (row.has_value()) keys.insert(row->cell);
  }
  return keys;
}

}  // namespace

TEST(ShardSpec, ParsesAndRejectsCliSyntax) {
  EXPECT_EQ(hexp::parse_shard_spec("0/1").index, 0u);
  EXPECT_EQ(hexp::parse_shard_spec("0/1").count, 1u);
  EXPECT_EQ(hexp::parse_shard_spec("2/3").index, 2u);
  EXPECT_EQ(hexp::parse_shard_spec("2/3").count, 3u);
  for (const char* bad : {"", "3/3", "4/3", "1", "/3", "1/", "a/b", "-1/2",
                          "1/0", "1/2x", "1.5/2"}) {
    EXPECT_THROW(hexp::parse_shard_spec(bad), std::invalid_argument) << bad;
  }
}

TEST(ShardSpec, SweepValidatesShardFieldsAtConstruction) {
  auto bad_index = shard_grid();
  bad_index.shard_index = 2;
  bad_index.shard_count = 2;
  EXPECT_THROW(hexp::Sweep(std::move(bad_index)), std::invalid_argument);

  auto zero_count = shard_grid();
  zero_count.shard_count = 0;
  EXPECT_THROW(hexp::Sweep(std::move(zero_count)), std::invalid_argument);
}

TEST(ShardSpec, HeaderRoundTripsAndRejectsForeignLines) {
  hexp::SweepShardHeader header;
  header.fingerprint = "0123456789abcdef";
  header.shard = 1;
  header.shards = 3;
  header.grid_cells = 42;
  header.schemes = {"hydra", "util/worst-fit"};
  const auto line = hexp::format_shard_header(header);
  const auto parsed = hexp::parse_shard_header(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fingerprint, header.fingerprint);
  EXPECT_EQ(parsed->shard, 1u);
  EXPECT_EQ(parsed->shards, 3u);
  EXPECT_EQ(parsed->grid_cells, 42u);
  EXPECT_EQ(parsed->schemes, header.schemes);

  EXPECT_FALSE(hexp::parse_shard_header("").has_value());
  EXPECT_FALSE(hexp::parse_shard_header(line + "x").has_value());
  // Lines that parse but that format_shard_header would write differently.
  auto padded = line;
  padded.replace(padded.find("\"shard\":1"), 9, "\"shard\":01");
  EXPECT_FALSE(hexp::parse_shard_header(padded).has_value());
  auto control = header;
  control.fingerprint = "0123\x01";
  auto raw_control = hexp::format_shard_header(control);
  raw_control.replace(raw_control.find("\\u0001"), 6, "\x01");
  EXPECT_FALSE(hexp::parse_shard_header(raw_control).has_value());
  EXPECT_FALSE(hexp::parse_shard_header("{\"cell\":\"p0:x:i0\"}").has_value());
  // An ordinary row line must never be mistaken for a header...
  const auto rows = run_rows(shard_grid(1));
  const auto first_row = rows.substr(0, rows.find('\n'));
  EXPECT_FALSE(hexp::parse_shard_header(first_row).has_value());
  // ...nor a header for a row (unknown key).
  EXPECT_FALSE(hexp::parse_jsonl_row(line).has_value());
}

TEST(ShardSpec, FingerprintTracksSpecIdentityButNotExecutionKnobs) {
  const hexp::Sweep base(shard_grid());
  const auto fingerprint = base.fingerprint();
  EXPECT_EQ(fingerprint.size(), 16u);

  // Execution knobs (jobs, shard position) leave the fingerprint alone: all
  // shards of one logical sweep must agree on it.  So does the replication
  // count: seeds are positional, so a cell's rows do not depend on it, and a
  // checkpoint of fewer replications resumes a run of more.
  auto knobs = shard_grid();
  knobs.jobs = 8;
  knobs.shard_index = 1;
  knobs.shard_count = 3;
  knobs.replications = 7;
  EXPECT_EQ(hexp::Sweep(std::move(knobs)).fingerprint(), fingerprint);

  // Identity changes move it.
  auto reseeded = shard_grid();
  reseeded.base_seed = 78;
  EXPECT_NE(hexp::Sweep(std::move(reseeded)).fingerprint(), fingerprint);
  auto fewer_schemes = shard_grid();
  fewer_schemes.schemes = {"hydra", "single-core"};
  EXPECT_NE(hexp::Sweep(std::move(fewer_schemes)).fingerprint(), fingerprint);
  auto other_grid = shard_grid();
  other_grid.points.pop_back();
  EXPECT_NE(hexp::Sweep(std::move(other_grid)).fingerprint(), fingerprint);
}

TEST(ShardSpec, FingerprintsOfFixedSpecsArePinned) {
  // Every checkpoint header carries these hashes: a refactor that moves one
  // makes every existing checkpoint unmergeable and unresumable, so a change
  // here must be deliberate.
  hexp::SweepSpec grid;
  grid.schemes = {"hydra", "single-core", "optimal"};
  hydra::gen::SyntheticConfig config;
  config.num_cores = 4;
  config.min_sec_per_core = 1;
  grid.add_utilization_grid(config, {0.8, 1.6});
  grid.replications = 5;
  grid.base_seed = 2018;
  EXPECT_EQ(hexp::sweep_fingerprint(grid), "be99b433ae9cecf6");

  hydra::core::Instance instance;
  instance.num_cores = 2;
  instance.rt_tasks = {hydra::rt::make_rt_task("r1", 10.0, 40.0),
                       hydra::rt::make_rt_task("r2", 3.5, 25.0)};
  instance.security_tasks = {{"s1", 2.0, 500.0, 5000.0, 1.0}};
  hexp::SweepSpec preset;
  preset.schemes = {"hydra", "contego"};
  hexp::SweepPoint preset_point;
  preset_point.instance = instance;
  preset_point.label = "preset";
  preset.points.push_back(preset_point);
  EXPECT_EQ(hexp::sweep_fingerprint(preset), "34af86a56f72eae4");

  // File paths are hashed as given, so the corpus is named relative to the
  // source tree to keep the pin independent of where the tree is checked out.
  const auto cwd = std::filesystem::current_path();
  std::filesystem::current_path(HYDRA_SOURCE_DIR);
  hexp::SweepSpec corpus;
  corpus.schemes = {"hydra", "single-core", "period-adapt"};
  corpus.add_corpus_point("tests/corpus", "corpus");
  const auto corpus_fingerprint = hexp::sweep_fingerprint(corpus);
  std::filesystem::current_path(cwd);
  EXPECT_EQ(corpus_fingerprint, "b3a4049bb31d2fb0");

  // Metric names and identities: the period-mode tolerance and a boost
  // family with the global baseline.
  hexp::SweepSpec metrics;
  metrics.schemes = {"contego", "period-adapt"};
  hydra::gen::SyntheticConfig two_cores;
  two_cores.num_cores = 2;
  metrics.add_utilization_grid(two_cores, {0.5, 1.0});
  metrics.replications = 3;
  metrics.base_seed = 2018;
  metrics.metrics = hexp::period_mode_metrics();
  hexp::AdaptiveMetricsConfig boost;
  boost.controller.policy = "boost";
  boost.name_suffix = "/boost";
  boost.include_global = true;
  for (auto& metric : hexp::adaptive_detection_metrics(boost)) {
    metrics.metrics.push_back(std::move(metric));
  }
  EXPECT_EQ(hexp::sweep_fingerprint(metrics), "b96a6486d7cc0f5e");
}

TEST(ShardSpec, FingerprintTracksFileContentAndPresetTaskParameters) {
  // Editing a workload file between shard runs changes the rows its cells
  // would hold — only the bytes reveal that, so the fingerprint must hash
  // content, not just paths.
  const auto path = ::testing::TempDir() + "hydra_fp_workload.txt";
  std::ofstream(path, std::ios::trunc) << "cores 2\nrt r1 10 40\nsec s1 2 500 5000\n";
  hexp::SweepSpec file_spec;
  file_spec.schemes = {"hydra"};
  hexp::SweepPoint file_point;
  file_point.files = {path};
  file_point.label = "fp";
  file_spec.points.push_back(file_point);
  const auto before = hexp::sweep_fingerprint(file_spec);
  std::ofstream(path, std::ios::trunc) << "cores 2\nrt r1 11 40\nsec s1 2 500 5000\n";
  EXPECT_NE(hexp::sweep_fingerprint(file_spec), before);
  std::remove(path.c_str());
  // A missing file is visibly different from any readable content.
  EXPECT_NE(hexp::sweep_fingerprint(file_spec), before);

  // Same for preset instances: identical task COUNTS, one WCET nudged.
  hydra::core::Instance instance;
  instance.num_cores = 2;
  instance.rt_tasks = {hydra::rt::make_rt_task("r1", 10.0, 40.0)};
  instance.security_tasks = {{"s1", 2.0, 500.0, 5000.0, 1.0}};
  hexp::SweepSpec preset_spec;
  preset_spec.schemes = {"hydra"};
  hexp::SweepPoint preset_point;
  preset_point.instance = instance;
  preset_point.label = "preset";
  preset_spec.points.push_back(preset_point);
  const auto preset_before = hexp::sweep_fingerprint(preset_spec);
  preset_spec.points[0].instance->rt_tasks[0].wcet = 11.0;
  EXPECT_NE(hexp::sweep_fingerprint(preset_spec), preset_before);
}

TEST(ShardSpec, FingerprintTracksMetricParametersNotJustNames) {
  // Two shards launched with different metric configs (e.g. fig5 --trials)
  // emit the same metric NAMES but different values; RowMetric::identity is
  // what lets the fingerprint — and therefore hydra_merge — tell them apart.
  hexp::AdaptiveMetricsConfig config;
  config.detection.trials = 120;
  auto spec = shard_grid();
  spec.metrics = hexp::adaptive_detection_metrics(config);
  const auto base = hexp::sweep_fingerprint(spec);

  config.detection.trials = 40;  // same names, different sampling
  auto retrialed = shard_grid();
  retrialed.metrics = hexp::adaptive_detection_metrics(config);
  ASSERT_EQ(retrialed.metrics.size(), spec.metrics.size());
  ASSERT_EQ(retrialed.metrics[0].name, spec.metrics[0].name);
  EXPECT_NE(hexp::sweep_fingerprint(retrialed), base);

  config.detection.trials = 120;
  config.controller.tighten_threshold = 0.5;  // controller knobs count too
  auto rethresholded = shard_grid();
  rethresholded.metrics = hexp::adaptive_detection_metrics(config);
  EXPECT_NE(hexp::sweep_fingerprint(rethresholded), base);
}

TEST(ShardPartition, IsDisjointExhaustiveAndJobsIndependent) {
  // Pure-function property on raw keys: every key lands in exactly one shard,
  // for any shard count.
  std::vector<std::string> keys;
  for (std::size_t p = 0; p < 7; ++p) {
    for (std::size_t i = 0; i < 11; ++i) {
      keys.push_back(hexp::sweep_cell_key(p, "m=2 u=" + std::to_string(p), i));
    }
  }
  for (std::size_t shards = 1; shards <= 6; ++shards) {
    std::size_t covered = 0;
    for (const auto& key : keys) {
      const auto shard = hexp::sweep_shard_of(key, shards);
      ASSERT_LT(shard, shards);
      ++covered;
      EXPECT_EQ(hexp::sweep_shard_of(key, shards), shard);  // stable
    }
    EXPECT_EQ(covered, keys.size());
  }

  // Run-level property: the cells each shard run EMITS are exactly the cells
  // the partition assigns to it, and the shard runs tile the full grid.
  const auto full_cells = cell_keys_of(run_rows(shard_grid()));
  ASSERT_EQ(full_cells.size(), 9u);  // 3 points × 3 replications
  std::set<std::string> unioned;
  for (std::size_t s = 0; s < 3; ++s) {
    auto spec = shard_grid();
    spec.shard_index = s;
    spec.shard_count = 3;
    const auto emitted = cell_keys_of(run_rows(std::move(spec)));
    for (const auto& cell : emitted) {
      EXPECT_EQ(hexp::sweep_shard_of(cell, 3), s) << cell;
      EXPECT_TRUE(unioned.insert(cell).second) << "cell emitted twice: " << cell;
    }
  }
  EXPECT_EQ(unioned, full_cells);
}

TEST(ShardDifferential, MergedShardsByteIdenticalToSingleProcessForAnyN) {
  auto reference_spec = shard_grid();
  reference_spec.jobs = 1;
  const auto reference = run_file(std::move(reference_spec));
  ASSERT_FALSE(reference.empty());

  for (const std::size_t shards : {1u, 2u, 3u, 5u}) {
    const ShardFiles files(shard_grid(), shards, "diff" + std::to_string(shards));
    const auto merged = hexp::merge_checkpoints(files.paths);
    EXPECT_EQ(merged.header.shard, 0u);
    EXPECT_EQ(merged.header.shards, 1u);
    EXPECT_EQ(merged.header.grid_cells, 9u);
    EXPECT_EQ(merged.torn_lines, 0u);
    std::ostringstream os;
    hexp::write_merged(merged, os);
    EXPECT_EQ(os.str(), reference) << shards << " shards";
  }
}

TEST(ShardDifferential, TinyGridLeavesSomeShardsEmptyAndStillMerges) {
  // 2 cells across 5 shards: at least three shard files are header-only.
  auto tiny = shard_grid(1);
  tiny.points.pop_back();  // 2 points × 1 replication
  auto reference_spec = tiny;
  reference_spec.jobs = 1;
  const auto reference = run_file(std::move(reference_spec));

  const ShardFiles files(tiny, 5, "tiny");
  std::size_t empty_shards = 0;
  for (const auto& path : files.paths) {
    const auto checkpoint = hexp::read_sweep_checkpoint(path);
    ASSERT_TRUE(checkpoint.has_value());
    EXPECT_EQ(checkpoint->header.grid_cells, 2u);
    if (checkpoint->rows.empty()) ++empty_shards;
  }
  EXPECT_GE(empty_shards, 3u);
  EXPECT_EQ(merge_to_string(files.paths), reference);
}

TEST(ShardDifferential, GoldenCorpusShardedMergeMatchesUnshardedAndGolden) {
  auto reference_spec = corpus_spec();
  reference_spec.jobs = 1;
  const auto reference = run_file(std::move(reference_spec));
  ASSERT_FALSE(reference.empty());

  const ShardFiles files(corpus_spec(), 3, "corpus");
  const auto merged_rows = merge_to_string(files.paths);
  EXPECT_EQ(merged_rows, reference);

  // Aggregating the merged stream reproduces the committed golden bytes —
  // the full chain: shard → merge → aggregate ≡ the single-process harness.
  hexp::AggregateOptions options;
  options.reference_scheme = "optimal";
  hexp::Aggregator aggregator(options);
  std::istringstream in(merged_rows);
  std::string line;
  std::getline(in, line);  // the header
  ASSERT_TRUE(hexp::parse_shard_header(line).has_value()) << line;
  while (std::getline(in, line)) {
    const auto row = hexp::parse_jsonl_row(line);
    ASSERT_TRUE(row.has_value()) << line;
    aggregator.row(*row);
  }
  std::ostringstream aggregate;
  aggregator.write_jsonl(aggregate);
  const auto golden = read_file(kGoldenPath);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << kGoldenPath;
  EXPECT_EQ(aggregate.str(), golden)
      << "sharded+merged aggregate diverged from the committed golden";
}

TEST(ShardDifferential, MergedCheckpointResumesWholeRunWithoutRecompute) {
  const ShardFiles files(shard_grid(), 3, "resume");
  const auto merged = merge_to_string(files.paths);
  const auto path = ::testing::TempDir() + "hydra_shard_merged_resume.jsonl";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << merged;
  }

  auto resumed_spec = shard_grid();
  resumed_spec.resume_path = path;
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  const auto summary = hexp::Sweep(std::move(resumed_spec)).run({&sink});
  EXPECT_EQ(summary.resumed_cells, summary.cells);
  EXPECT_EQ(os.str(), merged.substr(merged.find('\n') + 1));

  // A merged checkpoint (shard 0 of 1) also seeds a SHARDED re-run, which
  // splices exactly its own subset.
  auto shard_spec = shard_grid();
  shard_spec.shard_index = 1;
  shard_spec.shard_count = 3;
  shard_spec.resume_path = path;
  const auto shard_summary = hexp::Sweep(std::move(shard_spec)).run();
  EXPECT_EQ(shard_summary.resumed_cells, shard_summary.cells);
  std::remove(path.c_str());
}
