// Fig. 1 reproduction: empirical CDF of intrusion detection time, HYDRA vs
// SingleCore, on the UAV case study with the Table-I security catalog, for
// M ∈ {2, 4, 8} cores.  Also prints the paper's headline number: the average
// detection-time improvement per core count (paper: 19.81 %, 27.23 %,
// 29.75 % for 2/4/8 cores — shape target: HYDRA faster, improvement grows
// with M).
//
// Runs on exp::Sweep: one preset-instance point per core count, with the
// attack simulation attached as a RowMetric — so allocation, validation and
// simulation of every (core count, scheme) cell ride the sweep's work
// queue (--jobs parallelizes them), the mean detection time lands in the
// aggregated cells, and --out captures the rows like any other sweep.
//
// A second RowMetric (exp::global_detection_metric) measures the same
// attacks under global slack scheduling (paper §V: security jobs migrate to
// any idle core), so the optimistic migration bound appears alongside each
// scheme's partitioned detection latency.
//
// Any two registered schemes can be compared: the first name in --schemes is
// the candidate, the second the baseline (defaults reproduce the paper).
//
// Usage: bench_fig1_detection [--cores 2,4,8] [--schemes hydra,single-core]
//                             [--trials 500] [--horizon-s 500] [--seed 1]
//                             [--cdf-points 26] [--csv]
//                             [sweep flags: --jobs --resume --shard --out
//                              --agg-out; see exp/sweep_cli.h]
//
// --shard i/N runs the i-th of N disjoint cell subsets (see exp/sweep.h);
// shard outputs carry a self-describing header and are reunited with
// hydra_merge (README "Sharded sweeps on one host").  The CDF
// tables need the raw detection samples, which only exist for cells
// simulated in THIS process — resumed or foreign-shard cells print their
// aggregate row but skip the per-sample tables.
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/allocator.h"
#include "exp/metrics.h"
#include "exp/sweep_cli.h"
#include "gen/uav.h"
#include "io/table.h"
#include "sim/attack.h"
#include "stats/ecdf.h"
#include "stats/ks.h"
#include "stats/summary.h"
#include "util/cli.h"

namespace core = hydra::core;
namespace hexp = hydra::exp;
namespace sim = hydra::sim;
namespace io = hydra::io;

namespace {

constexpr const char* kMetricName = "mean_detection_ms";
constexpr const char* kGlobalMetricName = "global_mean_detection_ms";

/// Full detection-time sample vectors per (point label, scheme), filled by
/// the RowMetric hook from whichever worker thread evaluates the cell — the
/// CDF/KS reporting needs the raw distribution, not just the aggregated mean.
struct SampleCache {
  std::mutex mutex;
  std::map<std::pair<std::string, std::string>, std::vector<double>> samples;
};

int run(const hydra::util::CliParser& cli) {
  const auto cores = cli.get_int_list("cores", {2, 4, 8});
  const auto scheme_names = cli.get_string_list("schemes", {"hydra", "single-core"});
  const auto trials = cli.get_count("trials", 500);
  const auto horizon_s = static_cast<std::uint64_t>(cli.get_int("horizon-s", 500));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto cdf_points = cli.get_count("cdf-points", 26);
  const bool csv = cli.get_bool("csv", false);

  if (scheme_names.size() != 2) {
    std::cerr << "--schemes expects exactly two registered names "
                 "(candidate,baseline)\n";
    return 2;
  }

  sim::DetectionConfig config;
  config.horizon = horizon_s * 1000u * hydra::util::kTicksPerMilli;
  config.trials = trials;
  config.seed = seed;

  SampleCache cache;
  hexp::SweepSpec spec;
  spec.schemes = scheme_names;
  for (const auto m : cores) {
    hexp::SweepPoint point;
    point.instance = hydra::gen::uav_case_study(static_cast<std::size_t>(m));
    point.label = "m=" + std::to_string(m);
    spec.points.push_back(std::move(point));
  }
  // The simulation rides the sweep as a metric: it only ever sees validated
  // allocations, runs on the worker that owns the cell, and its mean lands
  // in the aggregated cells.  Seeded by config alone ⇒ deterministic.
  spec.metrics.push_back({kMetricName, [&](const core::Instance& instance,
                                           const core::DesignPoint& point) {
    const auto res = sim::measure_detection_times(instance, point.allocation, config);
    if (res.deadline_misses != 0) {
      throw std::runtime_error(point.scheme + ": simulation missed deadlines");
    }
    const double mean = hydra::stats::summarize(res.detection_ms).mean;
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.samples[{"m=" + std::to_string(instance.num_cores), point.scheme}] =
        res.detection_ms;
    return mean;
  }, hexp::detection_metric_identity(config)});
  // The §V migration bound rides the same queue: identical periods, but
  // security jobs may use any core's idle slack.
  spec.metrics.push_back(hexp::global_detection_metric(config, kGlobalMetricName));
  hexp::SweepCli sweep(cli, std::move(spec));

  io::print_banner(std::cout, "Fig. 1: empirical CDF of intrusion detection time (" +
                                  scheme_names[0] + " vs " + scheme_names[1] + ")");
  std::cout << "UAV control system + Table-I security tasks; " << horizon_s
            << " s schedules; " << trials << " attack trials per scheme.\n";
  sweep.run(std::cout);
  const auto cells = sweep.cells();

  io::Table summary({"cores", "mean " + scheme_names[0] + " (ms)",
                     "mean " + scheme_names[1] + " (ms)", "detection improvement",
                     "global-slack " + scheme_names[0] + " (ms)"});

  for (const auto m : cores) {
    const std::string label = "m=" + std::to_string(m);
    const auto* cand_cell = hexp::Aggregator::find(cells, label, scheme_names[0]);
    const auto* base_cell = hexp::Aggregator::find(cells, label, scheme_names[1]);
    if (cand_cell == nullptr || base_cell == nullptr || cand_cell->accepted == 0 ||
        base_cell->accepted == 0) {
      std::cout << "M = " << m << ": allocation infeasible or simulation failed\n";
      continue;
    }
    // Raw samples exist only for cells simulated in THIS process: a resumed
    // cell (or one owned by a sibling shard) contributes its aggregate row
    // but has nothing for the per-sample tables, so those are skipped.
    const auto cand_samples_it = cache.samples.find({label, scheme_names[0]});
    const auto base_samples_it = cache.samples.find({label, scheme_names[1]});
    const bool have_samples = cand_samples_it != cache.samples.end() &&
                              base_samples_it != cache.samples.end();
    io::print_banner(std::cout, "M = " + std::to_string(m) + " cores");
    if (!have_samples) {
      std::cout << "detection samples not simulated locally (resumed or "
                   "foreign-shard cell); CDF and distribution stats skipped\n";
    }
    const double axis_ms = 50000.0;  // the paper's 0–50 s CDF axis
    if (have_samples) {
      const auto& cand_ms = cand_samples_it->second;
      const auto& base_ms = base_samples_it->second;
      const hydra::stats::EmpiricalCdf cand_cdf(cand_ms);
      const hydra::stats::EmpiricalCdf base_cdf(base_ms);
      io::Table cdf({"detection time (ms)", "F_" + scheme_names[0],
                     "F_" + scheme_names[1]});
      for (const auto& [x, f] : cand_cdf.series(axis_ms, cdf_points)) {
        cdf.add_row({io::fmt(x, 0), io::fmt(f, 3), io::fmt(base_cdf(x), 3)});
      }
      if (csv) {
        cdf.print_csv(std::cout);
      } else {
        cdf.print(std::cout);
      }
    }

    // Average improvement in detection time (faster = positive) straight off
    // the aggregated metric, with the dominance check and distribution
    // distance the curves only suggest.
    // Read metrics defensively: a cell whose accepted rows somehow lack a
    // metric (e.g. a future partial-failure mode) prints "-" instead of
    // aborting the whole figure.
    const auto metric_mean = [](const hexp::CellStats& cell,
                                const char* name) -> std::optional<double> {
      const auto it = cell.metrics.find(name);
      if (it == cell.metrics.end() || it->second.count == 0) return std::nullopt;
      return it->second.mean;
    };
    const auto cand_mean = metric_mean(*cand_cell, kMetricName);
    const auto base_mean = metric_mean(*base_cell, kMetricName);
    const auto cand_global = metric_mean(*cand_cell, kGlobalMetricName);
    const auto base_global = metric_mean(*base_cell, kGlobalMetricName);
    if (!cand_mean.has_value() || !base_mean.has_value()) {
      std::cout << "M = " << m << ": detection metric missing from the cells\n";
      continue;
    }
    const double improvement = (*base_mean - *cand_mean) / *base_mean * 100.0;
    const auto fmt_opt = [](const std::optional<double>& v) {
      return v.has_value() ? io::fmt(*v, 1) : std::string("-");
    };
    summary.add_row({std::to_string(m), io::fmt(*cand_mean, 1), io::fmt(*base_mean, 1),
                     io::fmt_percent(improvement, 2), fmt_opt(cand_global)});
    std::cout << "global-slack migration bound (same periods, any idle core): "
              << scheme_names[0] << " " << fmt_opt(cand_global) << " ms, "
              << scheme_names[1] << " " << fmt_opt(base_global) << " ms\n";

    if (have_samples) {
      const auto& cand_ms = cand_samples_it->second;
      const auto& base_ms = base_samples_it->second;
      const hydra::stats::EmpiricalCdf cand_cdf(cand_ms);
      const hydra::stats::EmpiricalCdf base_cdf(base_ms);
      const auto cand_ci = hydra::stats::mean_ci95(cand_ms);
      const auto base_ci = hydra::stats::mean_ci95(base_ms);
      std::cout << "mean detection 95% CI: " << scheme_names[0] << " ["
                << io::fmt(cand_ci.lo, 0) << ", " << io::fmt(cand_ci.hi, 0) << "] ms, "
                << scheme_names[1] << " [" << io::fmt(base_ci.lo, 0) << ", "
                << io::fmt(base_ci.hi, 0) << "] ms; p95 "
                << io::fmt(hydra::stats::percentile(cand_ms, 0.95), 0) << " vs "
                << io::fmt(hydra::stats::percentile(base_ms, 0.95), 0)
                << " ms; KS distance "
                << io::fmt(hydra::stats::ks_statistic(cand_cdf, base_cdf), 3) << "; "
                << scheme_names[0] << " stochastically dominates: "
                << (hydra::stats::dominates(cand_cdf, base_cdf, 0.02) ? "yes" : "no") << "\n";
    }
  }

  io::print_banner(std::cout,
                   "Average detection-time improvement (paper: 19.81% / 27.23% / 29.75%)");
  if (csv) {
    summary.print_csv(std::cout);
  } else {
    summary.print(std::cout);
  }
  sweep.finish(std::cout);
  std::cout << "\nShape target: " << scheme_names[0] << "'s CDF dominates "
            << scheme_names[1]
            << "'s, the improvement grows with the core count, and the "
               "global-slack bound is never slower than the partitioned mean.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hexp::run_sweep_cli(
      argc, argv,
      {"cores", "schemes", "trials", "horizon-s", "seed", "cdf-points", "csv"}, run);
}
