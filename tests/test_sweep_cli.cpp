// The sweep front end every grid-sweep binary shares (exp/sweep_cli.h): the
// --out shard header, the misconfigurations it refuses before any cell runs,
// and the --agg-out file it writes and checks.
#include <gtest/gtest.h>

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

TEST(SweepCli, ShardedOutStartsWithTheShardHeaderAndUnshardedHasNone) {
  TempDir dir("sweep_cli_header");
  const std::string sharded = dir.path + "/s1.jsonl";
  hexp::SweepCli shard(parse({"--shard", "1/2", "--out", sharded}), small_grid());
  std::ostringstream note;
  shard.run(note);
  EXPECT_EQ(first_line(sharded), hexp::format_shard_header(shard.sweep().shard_header()));
  EXPECT_NE(note.str().find("shard 1/2"), std::string::npos);

  const std::string whole = dir.path + "/full.jsonl";
  hexp::SweepCli full(parse({"--out", whole, "--jobs", "2"}), small_grid());
  std::ostringstream quiet;
  const auto summary = full.run(quiet);
  EXPECT_EQ(quiet.str(), "");
  EXPECT_FALSE(hexp::parse_shard_header(first_line(whole)).has_value());
  EXPECT_TRUE(hexp::parse_jsonl_row(first_line(whole)).has_value());
  EXPECT_EQ(summary.rows.size(), 2u * 2u * 3u);
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

TEST(SweepCli, UnknownGpBackendThrowsNamingIt) {
  try {
    hexp::SweepCli(parse({"--gp-backend", "nope"}), small_grid());
    FAIL() << "an unknown backend must be refused";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("nope"), std::string::npos) << error.what();
  }
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

TEST(SweepCli, ShardWorkerArgsResumeFromTheirOwnOutput) {
  EXPECT_EQ(hexp::shard_worker_args(2, 3, "d/shard_2.jsonl"),
            (std::vector<std::string>{"--shard", "2/3", "--out", "d/shard_2.jsonl",
                                      "--resume", "d/shard_2.jsonl"}));
}
