// The sweep front end every grid-sweep binary shares (exp/sweep_cli.h): the
// header on every JSONL --out, the misconfigurations it refuses before any
// cell runs, the --agg-out file it writes and checks, the checkpoints
// --resume accepts and refuses, and the rerun that restarts a crashed shard
// from its own torn output.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/sweep_cli.h"
#include "gen/synthetic.h"
#include "util/cli.h"

namespace fs = std::filesystem;
namespace hexp = hydra::exp;

namespace {

hexp::SweepSpec small_grid() {
  hexp::SweepSpec spec;
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;
  config.max_sec_per_core = 2;
  spec.add_utilization_grid(config, {0.8, 1.4});
  spec.replications = 3;
  spec.base_seed = 5;
  return spec;
}

hydra::util::CliParser parse(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"test_sweep_cli"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  return hydra::util::CliParser(static_cast<int>(argv.size()), argv.data());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name) : path(testing::TempDir() + name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

}  // namespace

TEST(SweepCli, EveryJsonlOutStartsWithTheHeaderAndCsvHasNone) {
  TempDir dir("sweep_cli_header");
  const std::string sharded = dir.path + "/s1.jsonl";
  hexp::SweepCli shard(parse({"--shard", "1/2", "--out", sharded}), small_grid());
  std::ostringstream note;
  shard.run(note);
  EXPECT_EQ(first_line(sharded), hexp::format_shard_header(shard.sweep().shard_header()));
  EXPECT_NE(note.str().find("shard 1/2"), std::string::npos);

  // An unsharded JSONL is shard 0 of 1, with the same fingerprint and grid.
  const std::string whole = dir.path + "/full.jsonl";
  hexp::SweepCli full(parse({"--out", whole, "--jobs", "2"}), small_grid());
  std::ostringstream quiet;
  const auto summary = full.run(quiet);
  EXPECT_EQ(quiet.str(), "");
  const auto header = hexp::parse_shard_header(first_line(whole));
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->shard, 0u);
  EXPECT_EQ(header->shards, 1u);
  EXPECT_EQ(header->grid_cells, 2u * 3u);
  EXPECT_EQ(header->fingerprint, shard.sweep().fingerprint());
  EXPECT_EQ(header->grid_cells, shard.sweep().shard_header().grid_cells);
  EXPECT_EQ(summary.rows.size(), 2u * 2u * 3u);

  // CSV is not a checkpoint: its first line is the column header.
  const std::string csv = dir.path + "/full.csv";
  hexp::SweepCli table(parse({"--out", csv}), small_grid());
  table.run(quiet);
  EXPECT_EQ(first_line(csv).rfind("cell,instance,", 0), 0u) << first_line(csv);
}

TEST(SweepCli, AggOutOnAShardThrowsBeforeAnythingIsOpened) {
  TempDir dir("sweep_cli_agg_shard");
  const std::string out = dir.path + "/s1.jsonl";
  EXPECT_THROW(hexp::SweepCli(parse({"--shard", "1/2", "--agg-out", dir.path + "/cells.jsonl",
                                     "--out", out}),
                              small_grid()),
               std::invalid_argument);
  EXPECT_FALSE(fs::exists(out));
  EXPECT_FALSE(fs::exists(dir.path + "/cells.jsonl"));
}

TEST(SweepCli, CsvOutOnAShardThrows) {
  TempDir dir("sweep_cli_csv_shard");
  EXPECT_THROW(hexp::SweepCli(parse({"--out", dir.path + "/x.csv", "--shard", "0/2"}),
                              small_grid()),
               std::invalid_argument);
  // Unsharded, a CSV --out is fine.
  EXPECT_NO_THROW(hexp::SweepCli(parse({"--out", dir.path + "/x.csv"}), small_grid()));
}

TEST(SweepCli, GpBackendIsNotASweepFlag) {
  // Production ships one GP backend, so no sweep binary takes --gp-backend:
  // run_sweep_cli refuses it as unknown, naming it, before the body runs.
  const std::vector<const char*> argv = {"prog", "--gp-backend", "scp/barrier"};
  bool ran = false;
  testing::internal::CaptureStderr();
  const int status = hexp::run_sweep_cli(static_cast<int>(argv.size()), argv.data(), {},
                                         [&ran](const hydra::util::CliParser&) {
                                           ran = true;
                                           return 0;
                                         });
  const std::string error = testing::internal::GetCapturedStderr();
  EXPECT_EQ(status, 1);
  EXPECT_FALSE(ran);
  EXPECT_NE(error.find("unknown option --gp-backend"), std::string::npos) << error;
}

TEST(SweepCli, UnwritableAggOutThrowsNamingThePath) {
  const std::string path = "/nonexistent-dir/cells.jsonl";
  try {
    hexp::SweepCli(parse({"--agg-out", path}), small_grid());
    FAIL() << "an --agg-out that cannot be opened must be refused up front";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos) << error.what();
  }
}

TEST(SweepCli, AggOutHoldsTheAggregatedCellsAndResumePrintsItsLine) {
  TempDir dir("sweep_cli_agg");
  const std::string rows = dir.path + "/rows.jsonl";
  const std::string cells = dir.path + "/cells.jsonl";
  hexp::SweepCli direct(parse({"--out", rows, "--agg-out", cells}), small_grid());
  std::ostringstream direct_text;
  direct.run(direct_text);
  direct.finish(direct_text);
  EXPECT_EQ(direct_text.str(), "");

  hexp::Aggregator expected;
  hexp::Sweep(small_grid()).run({&expected});
  std::ostringstream expected_cells;
  expected.write_jsonl(expected_cells);
  EXPECT_EQ(slurp(cells), expected_cells.str());

  const std::string resumed_cells = dir.path + "/resumed_cells.jsonl";
  hexp::SweepCli resumed(parse({"--resume", rows, "--agg-out", resumed_cells}), small_grid());
  std::ostringstream resumed_text;
  resumed.run(resumed_text);
  resumed.finish(resumed_text);
  EXPECT_EQ(resumed_text.str(), "\nresumed 6 of 6 cells from " + rows + "\n");
  EXPECT_EQ(slurp(resumed_cells), expected_cells.str());
}

TEST(SweepCli, FailedAggOutWriteThrowsNamingThePath) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  TempDir dir("sweep_cli_agg_full");
  const std::string path = dir.path + "/cells.jsonl";
  fs::create_symlink("/dev/full", path);
  hexp::SweepCli sweep(parse({"--agg-out", path}), small_grid());
  std::ostringstream text;
  sweep.run(text);
  try {
    sweep.finish(text);
    FAIL() << "aggregated cells lost to a full device must not pass silently";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos) << error.what();
  }
}

TEST(SweepCli, ShardRerunOnItsOwnTornOutputResumesToTheUninterruptedBytes) {
  // The restart recipe for a crashed shard is to rerun its command line,
  // --out F --resume F.  That holds because the Sweep reads the checkpoint
  // before make_file_sink truncates F; opened the other way round, the rerun
  // would resume from an empty file and recompute every cell.
  TempDir dir("sweep_cli_own_resume");
  const std::string path = dir.path + "/s1.jsonl";
  const auto args = std::vector<std::string>{"--shard", "1/2", "--out", path, "--resume", path};
  const auto run = [&args] {
    hexp::SweepCli shard(parse(args), small_grid());
    std::ostringstream text;
    shard.run(text);
    shard.finish(text);
    return text.str();
  };
  run();  // cold start: F does not exist yet
  const std::string uninterrupted = slurp(path);

  // A shard killed mid-write: cut F in the middle of a row.
  const std::size_t cut = uninterrupted.find('\n', uninterrupted.size() / 2);
  ASSERT_NE(cut, std::string::npos);
  ASSERT_GT(uninterrupted.size(), cut + 1 + 25);
  {
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn << uninterrupted.substr(0, cut + 1 + 25);
  }

  const std::string text = run();
  const std::size_t line = text.find("\nresumed ");
  ASSERT_NE(line, std::string::npos) << text;
  std::size_t resumed = 0;
  std::size_t cells = 0;
  ASSERT_EQ(std::sscanf(text.c_str() + line, "\nresumed %zu of %zu cells", &resumed, &cells), 2)
      << text;
  EXPECT_GT(resumed, 0u);
  EXPECT_LT(resumed, cells);
  EXPECT_EQ(slurp(path), uninterrupted);
}

TEST(SweepCli, ResumeRefusesAHeaderlessFileButColdStartsFromAMissingOrEmptyOne) {
  TempDir dir("sweep_cli_resume_files");
  const std::string rows = dir.path + "/rows.jsonl";
  hexp::SweepCli direct(parse({"--out", rows}), small_grid());
  std::ostringstream text;
  direct.run(text);
  const std::string full = slurp(rows);

  // The same rows without their header: refused before --out is touched.
  const std::string headerless = dir.path + "/headerless.jsonl";
  std::ofstream(headerless, std::ios::binary) << full.substr(full.find('\n') + 1);
  try {
    hexp::SweepCli(parse({"--out", headerless, "--resume", headerless}), small_grid());
    FAIL() << "a headerless checkpoint must be refused";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(headerless), std::string::npos) << error.what();
  }
  EXPECT_EQ(slurp(headerless), full.substr(full.find('\n') + 1));

  // A missing file and an empty one (a run killed before its first flush)
  // are cold starts, and end with the uninterrupted bytes.
  for (const bool exists : {false, true}) {
    const std::string path = dir.path + (exists ? "/empty.jsonl" : "/missing.jsonl");
    if (exists) std::ofstream(path, std::ios::binary).flush();
    hexp::SweepCli cold(parse({"--out", path, "--resume", path}), small_grid());
    std::ostringstream cold_text;
    EXPECT_EQ(cold.run(cold_text).resumed_cells, 0u);
    cold.finish(cold_text);
    EXPECT_EQ(slurp(path), full);
  }
}

TEST(SweepCli, AShardResumesFromAWholeRunsFile) {
  // A whole run's --out (shard 0 of 1, like a merged file) seeds any shard,
  // which splices exactly the cells it owns and recomputes nothing.
  TempDir dir("sweep_cli_shard_from_whole");
  const std::string whole = dir.path + "/full.jsonl";
  hexp::SweepCli full(parse({"--out", whole}), small_grid());
  std::ostringstream text;
  full.run(text);

  const std::string fresh = dir.path + "/fresh_s1.jsonl";
  hexp::SweepCli cold(parse({"--shard", "1/2", "--out", fresh}), small_grid());
  cold.run(text);

  const std::string resumed = dir.path + "/resumed_s1.jsonl";
  hexp::SweepCli shard(parse({"--shard", "1/2", "--out", resumed, "--resume", whole}),
                       small_grid());
  const auto summary = shard.run(text);
  EXPECT_GT(summary.cells, 0u);
  EXPECT_EQ(summary.resumed_cells, summary.cells);
  EXPECT_EQ(slurp(resumed), slurp(fresh));

  // The other direction does not hold: a shard's file cannot seed the whole
  // run, whose other cells it never held.
  EXPECT_THROW(hexp::SweepCli(parse({"--resume", fresh}), small_grid()), std::runtime_error);
}
