// End-to-end swarm orchestration against REAL processes: this binary
// re-execs itself as the shard worker (see worker_main below), so the suite
// can SIGKILL a worker mid-checkpoint — torn FINAL line included — and
// assert that the production restart path resumes it with zero recompute and
// a merged stream byte-identical to the single-process run.
//
// Custom main (linked against GTest::gtest, not gtest_main): `--swarm-worker`
// routes to the worker entry point before gtest ever sees argv.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/merge.h"
#include "exp/sinks.h"
#include "exp/sweep.h"
#include "exp/sweep_cli.h"
#include "gen/synthetic.h"
#include "swarm/process.h"
#include "swarm/sweep_runner.h"
#include "util/cli.h"

namespace fs = std::filesystem;
namespace hexp = hydra::exp;
namespace swarm = hydra::swarm;

namespace {

std::string g_self_exe;  ///< argv[0], captured by main for self-respawn

/// The grid every test (and every spawned worker) runs: small enough for the
/// fast label, wide enough that a 3-way shard split leaves no shard empty.
hexp::SweepSpec swarm_grid() {
  hexp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core"};
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;
  config.max_sec_per_core = 2;
  spec.add_utilization_grid(config, {0.8, 1.4, 1.9});
  spec.replications = 4;
  spec.base_seed = 77;
  return spec;
}

/// Fault injection riding the worker's sweep as one more sink, after the
/// --out file (which flushes every row, so each row seen here is durable):
///   --row-delay-ms N  sleep after every row, so the orchestrator's poll loop
///                     observes durable rows while the worker is still alive
///                     (chaos-injection timing);
///   --crash-shard I   on shard I's FIRST attempt (marker file absent), after
///                     --crash-rows complete rows append a torn (newline-less)
///                     fragment and raise(SIGKILL) — exactly what a SIGKILL
///                     mid-write leaves.
class WorkerFaults : public hexp::ResultSink {
 public:
  WorkerFaults(std::string out, int row_delay_ms, std::size_t crash_after_rows)
      : out_(std::move(out)),
        row_delay_ms_(row_delay_ms),
        crash_after_rows_(crash_after_rows) {}

  void row(const hexp::BatchRow& row) override {
    if (row_delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(row_delay_ms_));
    }
    if (crash_after_rows_ == 0 || ++rows_ < crash_after_rows_) return;
    std::ostringstream line;
    hexp::JsonlSink(line).row(row);
    std::ofstream(out_, std::ios::binary | std::ios::app)
        << line.str().substr(0, line.str().size() / 2);  // the torn FINAL line
    std::ofstream(out_ + ".crashed") << "crashed\n";
    raise(SIGKILL);
  }

 private:
  std::string out_;
  int row_delay_ms_;
  std::size_t crash_after_rows_;  ///< 0 = never crash
  std::size_t rows_ = 0;
};

/// The shard worker this binary becomes under `--swarm-worker`: the
/// swarm_grid() sweep through the same front end the benches use
/// (exp/sweep_cli.h reads the orchestrator-appended --shard/--out/--resume),
/// plus the WorkerFaults flags and
///   --always-fail     exit 1 unconditionally (retry-exhaustion tests).
/// A clean run writes "<out>.summary" with resumed/cells/rows so tests can
/// assert the zero-recompute property from outside the process.
int worker_main(int argc, char** argv) {
  const hydra::util::CliParser cli(argc, argv, /*allow_positionals=*/true,
                                   /*value_less_flags=*/{"always-fail"});
  if (cli.get_bool("always-fail", false)) return 1;

  hexp::SweepCli sweep(cli, swarm_grid());
  const std::string out = cli.get_string(hexp::kOutFlag, "");
  const int crash_shard = static_cast<int>(cli.get_int("crash-shard", -1));
  const bool crash = crash_shard >= 0 &&
                     sweep.spec().shard_index == static_cast<std::size_t>(crash_shard) &&
                     !fs::exists(out + ".crashed");
  WorkerFaults faults(out, static_cast<int>(cli.get_int("row-delay-ms", 0)),
                      crash ? cli.get_count("crash-rows", 4) : 0);
  const auto summary = sweep.run(std::cout, {&faults});
  sweep.finish(std::cout);
  std::ofstream(out + ".summary")
      << "resumed=" << summary.resumed_cells << " cells=" << summary.cells
      << " rows=" << summary.rows.size() << "\n";
  return 0;
}

/// The single-process reference bytes every swarm run must reproduce.
std::string reference_rows() {
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  hexp::Sweep(swarm_grid()).run({&sink});
  return os.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::map<std::string, std::string> parse_summary(const std::string& path) {
  std::map<std::string, std::string> kv;
  std::istringstream in(slurp(path));
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

swarm::SweepRunnerOptions base_options(const std::string& dir) {
  swarm::SweepRunnerOptions options;
  options.shards = 3;
  options.dir = dir;
  options.out_path = dir + "/merged.jsonl";
  options.poll_interval_s = 0.01;
  options.merge_interval_s = 3600;  // timer-driven partials off unless tested
  options.policy.backoff_initial_s = 0.01;
  options.policy.backoff_max_s = 0.05;
  options.worker_command = {g_self_exe, "--swarm-worker"};
  return options;
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name)
      : path(testing::TempDir() + name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

}  // namespace

TEST(SwarmSweep, CleanSwarmMatchesSingleProcessBytes) {
  TempDir dir("swarm_clean");
  auto options = base_options(dir.path);
  options.partial_path = dir.path + "/partial.jsonl";
  options.expect_fingerprint = hexp::Sweep(swarm_grid()).fingerprint();

  swarm::LocalProcessBackend backend;
  swarm::EventLog log;
  swarm::SweepRunner runner(options, backend, log);
  std::ostringstream status;
  const auto result = runner.run(status);

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_EQ(slurp(options.out_path), reference_rows());
  // The final partial refresh ran after success: same complete union.
  EXPECT_EQ(slurp(options.partial_path), reference_rows());
  EXPECT_EQ(log.count("swarm-complete"), 1u);
  // Workers report zero recompute the OTHER way around here: nothing was
  // resumed because nothing crashed.
  for (int i = 0; i < 3; ++i) {
    const auto summary =
        parse_summary(dir.path + "/shard_" + std::to_string(i) + ".jsonl.summary");
    EXPECT_EQ(summary.at("resumed"), "0");
  }
}

TEST(SwarmSweep, SigkilledWorkerResumesWithZeroRecompute) {
  TempDir dir("swarm_crash");
  auto options = base_options(dir.path);
  options.worker_command.insert(options.worker_command.end(),
                                {"--crash-shard", "1", "--crash-rows", "4"});

  swarm::LocalProcessBackend backend;
  swarm::EventLog log;
  swarm::SweepRunner runner(options, backend, log);
  std::ostringstream status;
  const auto result = runner.run(status);

  // THE acceptance criterion: one worker SIGKILLed mid-checkpoint (torn
  // trailing line on disk), and the merged stream is still byte-identical to
  // the single-process run.
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(slurp(options.out_path), reference_rows());
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_EQ(log.count("worker-restarted"), 1u);
  EXPECT_EQ(log.count("worker-started"), 3u);

  // Zero recompute: the restarted shard spliced every durable cell its dead
  // predecessor left behind.  4 complete rows at 2 schemes/cell = 2 cells.
  const auto summary = parse_summary(dir.path + "/shard_1.jsonl.summary");
  EXPECT_EQ(summary.at("resumed"), "2");
  // The torn fragment was discarded, not resurrected: the victim's final
  // checkpoint parses clean and complete for its sub-grid.
  hexp::MergeOptions partial;
  partial.require_complete = false;  // one shard of three is partial by design
  const auto merged =
      hexp::merge_checkpoints({dir.path + "/shard_1.jsonl"}, partial);
  EXPECT_EQ(merged.torn_lines, 0u);
}

TEST(SwarmSweep, ChaosKillThroughRunnerAlsoConverges) {
  TempDir dir("swarm_chaos");
  auto options = base_options(dir.path);
  options.worker_command.insert(options.worker_command.end(),
                                {"--row-delay-ms", "25"});
  options.chaos_kill_shard = 2;
  options.chaos_after_rows = 2;

  swarm::LocalProcessBackend backend;
  swarm::EventLog log;
  swarm::SweepRunner runner(options, backend, log);
  std::ostringstream status;
  const auto result = runner.run(status);

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(slurp(options.out_path), reference_rows());
  EXPECT_EQ(log.count("worker-killed"), 1u);
  EXPECT_GE(result.restarts, 1u);
}

TEST(SwarmSweep, RetryExhaustionFailsLoudlyWithoutMergedOutput) {
  TempDir dir("swarm_fail");
  auto options = base_options(dir.path);
  options.worker_command.insert(options.worker_command.end(), {"--always-fail"});
  options.policy.max_attempts = 2;

  swarm::LocalProcessBackend backend;
  swarm::EventLog log;
  swarm::SweepRunner runner(options, backend, log);
  std::ostringstream status;
  const auto result = runner.run(status);

  ASSERT_FALSE(result.ok);
  // LOUD, actionable failure: names the exhausted shards, points at salvage,
  // and never fabricates a merged stream.
  EXPECT_NE(result.error.find("swarm FAILED"), std::string::npos);
  EXPECT_NE(result.error.find("hydra_merge --allow-partial"), std::string::npos);
  EXPECT_FALSE(fs::exists(options.out_path));
  EXPECT_GE(log.count("worker-gave-up"), 1u);
  EXPECT_EQ(log.count("swarm-failed"), 1u);
}

TEST(SwarmSweep, RunnerRejectsBusySpinPollIntervals) {
  TempDir dir("swarm_bad_poll");
  swarm::LocalProcessBackend backend;
  swarm::EventLog log;

  auto zero = base_options(dir.path);
  zero.poll_interval_s = 0.0;  // would busy-spin the probe loop
  EXPECT_THROW(swarm::SweepRunner(zero, backend, log), std::invalid_argument);

  auto negative = base_options(dir.path);
  negative.poll_interval_s = -0.5;
  EXPECT_THROW(swarm::SweepRunner(negative, backend, log), std::invalid_argument);

  auto bad_merge = base_options(dir.path);
  bad_merge.merge_interval_s = 0.0;
  EXPECT_THROW(swarm::SweepRunner(bad_merge, backend, log), std::invalid_argument);
}

TEST(SwarmSweep, FailedPartialWriteKeepsThePreviousSnapshot) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  TempDir dir("swarm_partial_full");
  auto options = base_options(dir.path);
  options.partial_path = dir.path + "/partial.jsonl";
  const std::string previous = "previous snapshot\n";
  std::ofstream(options.partial_path) << previous;
  // Every snapshot write lands on a full device.
  fs::create_symlink("/dev/full", options.partial_path + ".tmp");

  swarm::LocalProcessBackend backend;
  swarm::EventLog log;
  swarm::SweepRunner runner(options, backend, log);
  std::ostringstream status;
  const auto result = runner.run(status);

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(slurp(options.out_path), reference_rows());
  EXPECT_EQ(slurp(options.partial_path), previous);
  EXPECT_GE(log.count("partial-merge-failed"), 1u);
  EXPECT_EQ(log.count("partial-merged"), 0u);
}

TEST(SwarmSweep, FailedFinalWriteThrowsNamingThePath) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  TempDir dir("swarm_out_full");
  auto options = base_options(dir.path);
  fs::create_symlink("/dev/full", options.out_path);

  swarm::LocalProcessBackend backend;
  swarm::EventLog log;
  swarm::SweepRunner runner(options, backend, log);
  std::ostringstream status;
  try {
    runner.run(status);
    FAIL() << "a merged stream lost to a full device must not count as success";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(options.out_path), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(log.count("swarm-complete"), 0u);
}

TEST(SwarmSweep, ProbeCountsDurableRowsAndIgnoresTornTail) {
  TempDir dir("swarm_probe");
  const std::string path = dir.path + "/probe.jsonl";

  EXPECT_FALSE(swarm::probe_shard_checkpoint(path).exists);

  const hexp::Sweep sweep(swarm_grid());
  auto header = sweep.shard_header();
  std::ofstream out(path, std::ios::binary);
  out << hexp::format_shard_header(header) << "\n";
  out << "{\"cell\":\"a\"}\n{\"cell\":\"b\"}\n{\"cell\":\"c\"}\n";
  out << "{\"cell\":\"torn";  // no newline: not durable
  out.flush();

  const auto probe = swarm::probe_shard_checkpoint(path);
  EXPECT_TRUE(probe.exists);
  EXPECT_EQ(probe.durable_rows, 3u);
  ASSERT_TRUE(probe.header.has_value());
  EXPECT_EQ(probe.header->fingerprint, header.fingerprint);
  EXPECT_EQ(probe.header->cells, header.cells);
}

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--swarm-worker") {
    return worker_main(argc - 1, argv + 1);
  }
  g_self_exe = argv[0];
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
