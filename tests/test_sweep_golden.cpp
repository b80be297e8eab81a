// Golden-corpus regression tests: a tiny sweep over the committed workload
// corpus, with its aggregated results diffed against a committed golden
// JSONL.  Any change to the analysis core, an allocator, the aggregation
// statistics, or the serialization shows up as a one-line diff here.
//
// After an INTENTIONAL behaviour change, regenerate the golden file with
//
//     HYDRA_UPDATE_GOLDEN=1 ./build/test_sweep_golden
//
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/aggregate.h"
#include "exp/sweep.h"

namespace hexp = hydra::exp;

namespace {

const std::string kCorpusDir = std::string(HYDRA_SOURCE_DIR) + "/tests/corpus";
const std::string kGoldenPath = kCorpusDir + "/golden_cells.jsonl";

/// The paper's three schemes plus one representative of each new family, so
/// the golden file pins the adaptive allocators' numerics too.
hexp::SweepSpec corpus_spec() {
  hexp::SweepSpec spec;
  spec.schemes = {"hydra",   "single-core",  "optimal",
                  "contego", "period-adapt", "util/worst-fit"};
  spec.add_corpus_point(kCorpusDir, "corpus");
  spec.jobs = 2;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

TEST(WorkloadCorpus, DirectoryLoaderFindsEveryWorkloadSorted) {
  const auto files = hexp::expand_workload_files(kCorpusDir);
  ASSERT_EQ(files.size(), 10u);  // README.md and the golden JSONL are not workloads
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  EXPECT_NE(files[0].find("boundary_eq1_2core_i.txt"), std::string::npos);
  // All three workload extensions are picked up alongside .txt.
  bool has_taskset = false, has_workload = false;
  for (const auto& f : files) {
    has_taskset |= f.find(".taskset") != std::string::npos;
    has_workload |= f.find(".workload") != std::string::npos;
  }
  EXPECT_TRUE(has_taskset);
  EXPECT_TRUE(has_workload);
}

TEST(WorkloadCorpus, GlobPatternSelectsSubset) {
  const auto files = hexp::expand_workload_files(kCorpusDir + "/*_2core_*.txt");
  ASSERT_EQ(files.size(), 7u);
  for (const auto& f : files) {
    EXPECT_NE(f.find("_2core_"), std::string::npos);
    EXPECT_EQ(f.find(".taskset"), std::string::npos);  // extension-filtered
  }
}

TEST(WorkloadCorpus, EmptyMatchesThrowInsteadOfSweepingNothing) {
  EXPECT_THROW(hexp::expand_workload_files(kCorpusDir + "/*.nope"), std::runtime_error);
  // A plain (non-glob) path passes through for per-item error reporting.
  const auto passthrough = hexp::expand_workload_files(kCorpusDir + "/absent.txt");
  ASSERT_EQ(passthrough.size(), 1u);
}

TEST(WorkloadCorpus, GlobInMissingDirectoryThrows) {
  // A pattern whose parent directory does not exist can never match, and an
  // empty regression sweep is a misconfiguration — it must throw, not yield
  // a zero-instance batch.
  try {
    hexp::expand_workload_files("/no/such/directory/*.txt");
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/directory"), std::string::npos);
  }
}

TEST(WorkloadCorpus, DirectoryWithoutWorkloadFilesThrows) {
  const auto dir =
      std::filesystem::temp_directory_path() / "hydra_empty_corpus_test";
  std::filesystem::create_directories(dir);
  // A stray non-workload file must not count.
  std::ofstream(dir / "notes.md") << "not a workload\n";
  EXPECT_THROW(hexp::expand_workload_files(dir.string()), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(WorkloadCorpus, MalformedWorkloadLineBecomesPerItemError) {
  // A file that exists but fails to parse is NOT a sweep-level failure: the
  // materializer reports it per item, and the sweep turns it into
  // "no-instance" rows so the rest of the corpus still runs.
  const auto dir = std::filesystem::temp_directory_path() / "hydra_malformed_test";
  std::filesystem::create_directories(dir);
  const auto path = dir / "broken.txt";
  std::ofstream(path) << "cores 2\nrt r1 10 40\nsec s1 not-a-number 500 5000\n";

  hexp::BatchSpec spec;
  spec.files = {path.string()};
  hexp::BatchItem item;
  item.index = 0;
  item.file = path.string();
  const auto materialized = hexp::materialize(spec, item);
  EXPECT_FALSE(materialized.instance.has_value());
  EXPECT_FALSE(materialized.error.empty());
  EXPECT_NE(materialized.error.find("line"), std::string::npos)
      << "error should carry the offending line: " << materialized.error;

  hexp::SweepSpec sweep_spec;
  sweep_spec.schemes = {"hydra"};
  hexp::SweepPoint point;
  point.files = {path.string()};
  point.label = "malformed";
  sweep_spec.points.push_back(point);
  hexp::Aggregator aggregator;
  const auto summary = hexp::Sweep(sweep_spec).run({&aggregator});
  ASSERT_EQ(summary.rows.size(), 1u);
  EXPECT_EQ(summary.rows[0].status, "no-instance");
  EXPECT_FALSE(summary.rows[0].note.empty());
  const auto cells = aggregator.cells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].no_instance, 1u);
  EXPECT_EQ(cells[0].accepted, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SweepGolden, CorpusSemanticsHoldRegardlessOfGoldenBytes) {
  // Semantic anchors that must survive a golden regeneration: HYDRA accepts
  // at least what SingleCore does, the overload instance is rejected by
  // every scheme, and nothing errors — including on the adversarial
  // GP-edge-case and near-boundary Eq. (1) instances.
  const hexp::Sweep sweep(corpus_spec());
  hexp::Aggregator aggregator;
  sweep.run({&aggregator});
  const auto cells = aggregator.cells();
  ASSERT_EQ(cells.size(), 6u);

  const auto* hydra_cell = hexp::Aggregator::find(cells, 0, "hydra");
  const auto* single_cell = hexp::Aggregator::find(cells, 0, "single-core");
  const auto* optimal_cell = hexp::Aggregator::find(cells, 0, "optimal");
  const auto* contego_cell = hexp::Aggregator::find(cells, 0, "contego");
  const auto* period_cell = hexp::Aggregator::find(cells, 0, "period-adapt");
  const auto* worst_fit_cell = hexp::Aggregator::find(cells, 0, "util/worst-fit");
  ASSERT_NE(hydra_cell, nullptr);
  ASSERT_NE(single_cell, nullptr);
  ASSERT_NE(optimal_cell, nullptr);
  ASSERT_NE(contego_cell, nullptr);
  ASSERT_NE(period_cell, nullptr);
  ASSERT_NE(worst_fit_cell, nullptr);

  EXPECT_EQ(hydra_cell->total, 10u);
  EXPECT_EQ(hydra_cell->errors, 0u);
  EXPECT_EQ(hydra_cell->no_instance, 0u);
  EXPECT_GE(hydra_cell->accepted, single_cell->accepted);
  EXPECT_LT(hydra_cell->accepted, 10u);  // the overload instance must fail
  EXPECT_GT(hydra_cell->accepted, 0u);
  // split_2core_d and boundary_eq1_2core_i are the designed separators:
  // HYDRA's partitioned placement fits, SingleCore's dedicated-core split
  // cannot fold the RT load onto M-1 cores.
  EXPECT_GT(hydra_cell->accepted, single_cell->accepted);
  // The exhaustive optimal never accepts less than the heuristic.
  EXPECT_GE(optimal_cell->accepted, hydra_cell->accepted);
  // The adaptive families run clean on the corpus — the near-singular GP
  // boxes and the huge-span periods must not error anywhere — and nobody
  // swallows the overload instance.
  for (const auto* cell : {contego_cell, period_cell, worst_fit_cell}) {
    EXPECT_EQ(cell->total, 10u);
    EXPECT_EQ(cell->errors, 0u);
    EXPECT_LT(cell->accepted, 10u);
    EXPECT_GT(cell->accepted, 0u);
  }
  // Binomial acceptance CI straddles the ratio on every cell.
  for (const auto& cell : cells) {
    EXPECT_LE(cell.acceptance_ci95_lo, cell.acceptance_ratio + 1e-12);
    EXPECT_GE(cell.acceptance_ci95_hi, cell.acceptance_ratio - 1e-12);
  }
}

TEST(SweepGolden, AggregatedResultsMatchCommittedGolden) {
  const hexp::Sweep sweep(corpus_spec());
  hexp::AggregateOptions options;
  options.reference_scheme = "optimal";
  hexp::Aggregator aggregator(options);
  sweep.run({&aggregator});

  std::ostringstream actual;
  aggregator.write_jsonl(actual);
  ASSERT_FALSE(actual.str().empty());

  if (std::getenv("HYDRA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    out << actual.str();
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  const std::string expected = read_file(kGoldenPath);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << kGoldenPath
                                 << " — run with HYDRA_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(actual.str(), expected)
      << "aggregated corpus sweep diverged from the committed golden JSONL; "
         "if the change is intentional, regenerate with HYDRA_UPDATE_GOLDEN=1 "
         "and review the diff";
}

TEST(SweepGolden, RowSemanticsVersionIsPinnedToTheGoldenDigest) {
  // Resume and merge trust a checkpoint whose fingerprint matches, and the
  // fingerprint opens with exp::kRowSemanticsVersion.  A change that moves
  // row bytes re-records the golden; unless it also bumps the version,
  // checkpoints of the old rows still resume and merge into the new ones.
  // So the version and the golden's FNV-1a digest are pinned together:
  // re-pin both, never the digest alone.
  constexpr const char* kPinnedVersion = "hydra-sweep-v1";
  constexpr std::uint64_t kPinnedGoldenDigest = 0x350d9873c4cb79acULL;

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath;
  std::uint64_t digest = 1469598103934665603ULL;
  for (char c; in.get(c);) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 1099511628211ULL;
  }
  EXPECT_STREQ(hexp::kRowSemanticsVersion, kPinnedVersion)
      << "exp::kRowSemanticsVersion moved: pin the new version here together "
         "with the digest of the golden re-recorded with it";
  EXPECT_EQ(digest, kPinnedGoldenDigest)
      << "tests/corpus/golden_cells.jsonl was re-recorded: row bytes moved, so "
         "bump exp::kRowSemanticsVersion (src/exp/sweep.h), which stops "
         "checkpoints of the old rows from resuming or merging, then pin the "
         "new version and this digest (0x"
      << std::hex << digest << ") here";
}

TEST(SweepGolden, RowStreamIsIndependentOfJobCount) {
  // The corpus sweep's raw row stream — not just the aggregate — must be
  // byte-identical for any worker count.
  auto serial_spec = corpus_spec();
  serial_spec.jobs = 1;
  auto parallel_spec = corpus_spec();
  parallel_spec.jobs = 8;

  std::ostringstream serial, parallel;
  hexp::JsonlSink serial_sink(serial), parallel_sink(parallel);
  hexp::Sweep(serial_spec).run({&serial_sink});
  hexp::Sweep(parallel_spec).run({&parallel_sink});
  EXPECT_FALSE(serial.str().empty());
  EXPECT_EQ(serial.str(), parallel.str());
}
