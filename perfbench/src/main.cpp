// sweepbench: one measured process of the end-to-end sweep benchmark.
//
// Runs one workload once, through the public exp::Sweep API, writes the row
// stream as JSONL to --out, and prints one JSON object of measurements on
// stdout.  perfbench/run.py starts a fresh process per measurement (the
// warm-start and metric memos are process-wide or per thread, and every real
// figure invocation starts without them) and turns the objects into the
// benchmark's metrics.
//
//   sweepbench --info
//   sweepbench --workload accept-grid --seed 7 --jobs 4 --trace 0 --out rows.jsonl
//              [--size full|smoke]
//
// --trace 1 registers the delegating wrappers of trace.h and adds per-layer
// metrics; the rows are then stamped "trace@<scheme>" and otherwise
// byte-identical.  --size smoke shrinks every workload for the self-test.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "exp/aggregate.h"
#include "exp/batch.h"
#include "exp/metrics.h"
#include "exp/sweep.h"
#include "gen/synthetic.h"
#include "trace.h"
#include "util/cli.h"
#include "util/units.h"

namespace hexp = hydra::exp;
namespace gen = hydra::gen;

namespace {

constexpr const char* kBuildType = PERFBENCH_BUILD_TYPE;
constexpr const char* kCompiler = PERFBENCH_COMPILER;

/// Every scheme any workload runs: the traced run reports per-scheme metrics
/// for all of them (zeros where a workload does not run the scheme).
const std::vector<std::string> kAllSchemes = {"hydra", "single-core", "contego",
                                              "period-adapt/gp", "optimal"};

bool release_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return std::string(kBuildType) == "Release";
#else
  return false;
#endif
}

/// One workload's sweep: schemes, grid, replications and row metrics.
struct GridWorkload {
  std::vector<std::string> schemes;
  std::vector<std::pair<gen::SyntheticConfig, std::vector<double>>> grids;
  std::size_t replications = 1;
  std::string reference;  ///< Aggregator gap reference ("" = none)
  std::vector<hexp::RowMetric> metrics;
  /// Draw the tasksets here and hand them to the sweep as preset points,
  /// dropping those the simulator cannot represent (see simulable()).
  bool preset_draws = false;
};

/// The point-queries client: one-point sweeps of distinct tasksets.
struct QueryWorkload {
  std::vector<std::string> schemes = {"hydra", "single-core", "contego"};
  gen::SyntheticConfig synthetic;
  double utilization = 2.0;
  std::size_t queries = 1;
};

GridWorkload accept_grid(bool smoke) {
  // Fig. 2: hydra vs single-core, M in {2, 4, 8}, the 39-point axis.
  GridWorkload w;
  w.schemes = {"hydra", "single-core"};
  for (const std::size_t m : {2, 4, 8}) {
    gen::SyntheticConfig config;
    config.num_cores = m;
    w.grids.emplace_back(config, hexp::utilization_axis(m));
  }
  w.replications = smoke ? 1 : 60;
  return w;
}

GridWorkload optimal_gap(bool smoke) {
  // Figs. 3/4 at M = 2, gap against the exhaustive optimal.  NS is fixed at
  // 4 (the paper draws it from [2, 6]): one NS = 6 cell costs as much as ten
  // NS = 4 cells, so a random NS would make the run time a property of the
  // seed rather than of the program.
  GridWorkload w;
  w.schemes = {"hydra", "contego", "period-adapt/gp", "optimal"};
  gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 2;
  config.max_sec_per_core = 2;
  w.grids.emplace_back(config, smoke ? std::vector<double>{0.5, 1.0, 1.5}
                                     : hexp::utilization_axis(2));
  w.replications = smoke ? 1 : 3;
  w.reference = "optimal";
  return w;
}

GridWorkload runtime_adapt(bool smoke) {
  // Fig. 5: contego with three controller-policy families side by side.  The
  // horizon is half the bench default (200 s), for twice the tasksets in the
  // same time: the simulation cost of a taskset varies widely with its
  // shortest periods, and more tasksets average that out.  The points are
  // 0.25, 0.375 and 0.5 M rather than the bench default 0.3, 0.5 and 0.7 M:
  // above 0.5 M about one contego allocation in 400 misses a deadline in the
  // simulator, which makes the row an "error".
  //
  // The tasksets are drawn here rather than inside the sweep so that the few
  // with a WCET under the simulator's 1 us tick can be dropped: the
  // mode-switch simulator rejects a zero-tick WCET, which turns the row into
  // an "error" (about one taskset in 300 at these settings).
  GridWorkload w;
  w.preset_draws = true;
  w.schemes = {"contego"};
  gen::SyntheticConfig config;
  config.num_cores = 2;
  w.grids.emplace_back(config, std::vector<double>{0.5, 0.75, 1.0});
  w.replications = smoke ? 1 : 48;
  hexp::AdaptiveMetricsConfig base;
  base.detection.horizon = 100u * 1000u * hydra::util::kTicksPerMilli;
  base.detection.trials = 120;
  base.detection.seed = 1;
  base.controller.tighten_threshold = 0.25;
  base.controller.relax_threshold = 0.05;
  base.controller.num_levels = 3;
  const std::vector<std::string> policies = {"hysteresis", "boost", "never-switch"};
  for (std::size_t i = 0; i < policies.size(); ++i) {
    auto family = base;
    family.controller.policy = policies[i];
    family.name_suffix = "/" + policies[i];
    family.include_static = family.include_min_mode = family.include_global = i == 0;
    for (auto& metric : hexp::adaptive_detection_metrics(family)) {
      w.metrics.push_back(std::move(metric));
    }
  }
  return w;
}

QueryWorkload point_queries(bool smoke) {
  QueryWorkload w;
  w.synthetic.num_cores = 4;
  w.queries = smoke ? 5 : 3000;
  return w;
}

/// Records when each row reaches the sinks, relative to Sweep::run's start.
class RowClock final : public hexp::ResultSink {
 public:
  void start() { start_ = perfbench::now_ns(); }
  void row(const hexp::BatchRow&) override {
    latency_ms_.push_back(1e-6 * double(perfbench::now_ns() - start_));
  }
  std::vector<double>& latency_ms() { return latency_ms_; }

 private:
  std::int64_t start_ = 0;
  std::vector<double> latency_ms_;
};

/// Row accounting shared by both workload kinds.
struct RowCounts {
  std::size_t rows = 0, skipped = 0, no_instance = 0, errors = 0;
  std::size_t feasible_unvalidated = 0;
  std::map<std::string, std::size_t> skipped_by_scheme;
  double switches = 0.0, denied_dwell = 0.0, denied_budget = 0.0;

  void add(const std::vector<hexp::BatchRow>& batch) {
    for (const auto& row : batch) {
      ++rows;
      if (row.status == "ok") {
        if (row.feasible && !row.validated) ++feasible_unvalidated;
      } else if (row.status == "skipped") {
        ++skipped;
        ++skipped_by_scheme[row.scheme];
      } else if (row.status == "no-instance") {
        ++no_instance;
      } else {
        ++errors;
      }
      for (const auto& [name, value] : row.metrics) {
        if (name.rfind("adaptive_switches", 0) == 0) switches += value;
        if (name.rfind("adaptive_denied_dwell", 0) == 0) denied_dwell += value;
        if (name.rfind("adaptive_denied_budget", 0) == 0) denied_budget += value;
      }
    }
  }
};

/// Everything one process measured.
struct Measurement {
  std::int64_t first_unit_ns = 0;  ///< monotonic time the first unit was issued
  double construct_s = 0.0;        ///< Sweep construction, summed over sweeps
  double sweep_s = 0.0;
  std::size_t cells = 0;  ///< grid units, or queries
  std::size_t out_bytes = 0;
  RowCounts counts;
  std::vector<double> latency_ms;
  std::size_t materialize_calls = 0, materialize_failed = 0;
  double materialize_s = 0.0;
};

std::string traced(const std::string& scheme, bool trace) {
  return trace ? perfbench::kTracePrefix + scheme : scheme;
}

std::vector<std::string> scheme_names(const std::vector<std::string>& schemes, bool trace) {
  std::vector<std::string> out;
  for (const auto& name : schemes) out.push_back(traced(name, trace));
  return out;
}

double seconds_since(std::int64_t start) { return 1e-9 * double(perfbench::now_ns() - start); }

/// True when every task's WCET is at least one simulator tick.
bool simulable(const hydra::core::Instance& instance) {
  for (const auto& task : instance.rt_tasks) {
    if (hydra::util::to_ticks(task.wcet) == 0) return false;
  }
  for (const auto& task : instance.security_tasks) {
    if (hydra::util::to_ticks(task.wcet) == 0) return false;
  }
  return true;
}

/// Appends `count` preset points of simulable tasksets drawn at `utilization`
/// from the per-point seed the sweep itself would use for point `p`.
void add_simulable_points(hexp::SweepSpec& spec, const gen::SyntheticConfig& config,
                          double utilization, std::size_t p, std::size_t count,
                          Measurement& m) {
  hexp::BatchSpec draw;
  draw.synthetic = config;
  draw.total_utilization = utilization;
  draw.base_seed = hexp::sweep_point_seed(spec.base_seed, p);
  for (std::size_t k = 0, added = 0; added < count; ++k) {
    if (k >= 4 * count + 64) throw std::runtime_error("too few simulable tasksets");
    hexp::BatchItem item;
    item.index = k;
    item.seed = hexp::instance_seed(draw.base_seed, k);
    const std::int64_t start = perfbench::now_ns();
    auto drawn = hexp::materialize(draw, item);
    m.materialize_s += seconds_since(start);
    ++m.materialize_calls;
    if (!drawn.instance.has_value()) {
      ++m.materialize_failed;
      continue;
    }
    if (!simulable(*drawn.instance)) continue;
    hexp::SweepPoint point;
    point.label = "m=" + std::to_string(config.num_cores) +
                  " u=" + hexp::format_double(utilization) + " #" + std::to_string(k);
    point.instance = std::move(drawn.instance);
    spec.points.push_back(std::move(point));
    ++added;
  }
}

Measurement run_grid(GridWorkload w, std::uint64_t seed, std::size_t jobs, bool trace,
                     const std::string& out_path) {
  Measurement m;
  hexp::SweepSpec spec;
  spec.schemes = scheme_names(w.schemes, trace);
  spec.replications = w.replications;
  spec.base_seed = seed;
  spec.jobs = jobs;
  spec.metrics = trace ? perfbench::traced_metrics(std::move(w.metrics)) : std::move(w.metrics);
  if (trace) spec.gp_backend = perfbench::kTracedBackend;
  for (const auto& [config, utilizations] : w.grids) {
    if (!w.preset_draws) {
      spec.add_utilization_grid(config, utilizations);
      continue;
    }
    for (std::size_t p = 0; p < utilizations.size(); ++p) {
      add_simulable_points(spec, config, utilizations[p], p, w.replications, m);
    }
  }
  const std::int64_t construct_start = perfbench::now_ns();
  const hexp::Sweep sweep(std::move(spec));
  m.construct_s = seconds_since(construct_start);

  hexp::AggregateOptions agg_options;
  if (!w.reference.empty()) agg_options.reference_scheme = traced(w.reference, trace);
  hexp::Aggregator aggregator(agg_options);
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + out_path);
  hexp::JsonlSink jsonl(out);
  RowClock clock;
  perfbench::TimedSink timed_agg(aggregator, perfbench::TimedSink::Layer::kAggregate);
  perfbench::TimedSink timed_jsonl(jsonl, perfbench::TimedSink::Layer::kIo);
  const std::vector<hexp::ResultSink*> sinks =
      trace ? std::vector<hexp::ResultSink*>{&timed_agg, &timed_jsonl}
            : std::vector<hexp::ResultSink*>{&aggregator, &jsonl, &clock};

  m.first_unit_ns = perfbench::now_ns();
  if (trace) perfbench::begin_run_window();
  clock.start();
  const auto summary = sweep.run(sinks);
  m.sweep_s = seconds_since(m.first_unit_ns);
  if (trace) perfbench::end_run_window();
  {
    std::optional<perfbench::AggregateSpan> span;
    if (trace) span.emplace();
    if (aggregator.cells().empty()) throw std::runtime_error("aggregator saw no cells");
  }
  m.cells = summary.cells;
  m.counts.add(summary.rows);
  m.latency_ms = std::move(clock.latency_ms());
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + out_path);
  m.out_bytes = static_cast<std::size_t>(out.tellp());

  if (trace) {
    // The sweep materializes inside its workers, where no public seam
    // reaches; redraw the same units here, one thread, to time the gen layer.
    for (std::size_t p = 0; p < sweep.spec().points.size(); ++p) {
      const auto& point = sweep.spec().points[p];
      if (point.instance.has_value()) continue;  // drawn and timed above
      hexp::BatchSpec point_spec;
      point_spec.synthetic = point.synthetic;
      point_spec.total_utilization = point.total_utilization;
      point_spec.base_seed = hexp::sweep_point_seed(sweep.spec().base_seed, p);
      point_spec.max_attempts = sweep.spec().max_attempts;
      point_spec.count = sweep.spec().replications;
      for (const auto& item : hexp::enumerate(point_spec)) {
        const std::int64_t start = perfbench::now_ns();
        const auto drawn = hexp::materialize(point_spec, item);
        m.materialize_s += seconds_since(start);
        ++m.materialize_calls;
        if (!drawn.instance.has_value()) ++m.materialize_failed;
      }
    }
  }
  return m;
}

Measurement run_queries(const QueryWorkload& w, std::uint64_t seed, bool trace,
                        const std::string& out_path) {
  Measurement m;
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + out_path);
  hexp::JsonlSink jsonl(out);
  perfbench::TimedSink timed_jsonl(jsonl, perfbench::TimedSink::Layer::kIo);
  hexp::ResultSink* sink = trace ? static_cast<hexp::ResultSink*>(&timed_jsonl) : &jsonl;
  const auto schemes = scheme_names(w.schemes, trace);

  hexp::BatchSpec draw;
  draw.synthetic = w.synthetic;
  draw.total_utilization = w.utilization;
  draw.base_seed = seed;
  std::int64_t loop_start = 0;
  for (std::size_t k = 0; m.cells < w.queries; ++k) {
    if (k >= 4 * w.queries) throw std::runtime_error("too many failed taskset draws");
    // The client prepares its input between queries, outside the latency.
    hexp::BatchItem item;
    item.index = k;
    item.seed = hexp::instance_seed(seed, k);
    const std::int64_t draw_start = perfbench::now_ns();
    auto drawn = hexp::materialize(draw, item);
    if (trace) {
      m.materialize_s += seconds_since(draw_start);
      ++m.materialize_calls;
    }
    if (!drawn.instance.has_value()) {
      ++m.materialize_failed;
      continue;
    }

    const std::int64_t issued = perfbench::now_ns();
    if (m.cells == 0) m.first_unit_ns = loop_start = issued;
    hexp::SweepSpec spec;
    spec.schemes = schemes;
    if (trace) spec.gp_backend = perfbench::kTracedBackend;
    hexp::SweepPoint point;
    point.label = "query " + std::to_string(k);
    point.instance = std::move(drawn.instance);
    spec.points.push_back(std::move(point));
    const hexp::Sweep sweep(std::move(spec));
    m.construct_s += seconds_since(issued);
    if (trace) perfbench::begin_run_window();
    const auto summary = sweep.run({sink});
    if (trace) perfbench::end_run_window();
    m.latency_ms.push_back(1e-6 * double(perfbench::now_ns() - issued));
    m.counts.add(summary.rows);
    ++m.cells;
  }
  m.sweep_s = seconds_since(loop_start);
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + out_path);
  m.out_bytes = static_cast<std::size_t>(out.tellp());
  return m;
}

std::string number(double value) { return hexp::json_number(value); }

void print_info(std::ostream& os) {
  os << "{\"build_type\":\"" << hexp::json_escape(kBuildType) << "\",\"compiler\":\""
     << hexp::json_escape(kCompiler) << "\",\"release\":" << (release_build() ? "true" : "false")
     << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const hydra::util::CliParser cli(argc, argv);
    if (cli.get_bool("info", false)) {
      print_info(std::cout);
      return release_build() ? 0 : 3;
    }
    if (!release_build()) {
      std::cerr << "sweepbench: refusing to measure a " << kBuildType
                << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 3;
    }
    const std::string workload = cli.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const auto jobs = static_cast<std::size_t>(cli.get_int("jobs", 1));
    const bool trace = cli.get_int("trace", 0) != 0;
    const bool smoke = cli.get_string("size", "full") == "smoke";
    const std::string out_path = cli.get_string("out", "");
    if (out_path.empty()) throw std::invalid_argument("--out is required");
    if (jobs == 0) throw std::invalid_argument("--jobs must be at least 1");

    Measurement m;
    std::size_t effective_jobs = jobs;
    if (workload == "point-queries") {
      auto w = point_queries(smoke);
      if (trace) {
        perfbench::register_traced_allocators(w.schemes);
        perfbench::register_traced_backend();
      }
      m = run_queries(w, seed, trace, out_path);
      effective_jobs = 1;
    } else {
      GridWorkload w;
      if (workload == "accept-grid") {
        w = accept_grid(smoke);
      } else if (workload == "optimal-gap") {
        w = optimal_gap(smoke);
      } else if (workload == "runtime-adapt") {
        w = runtime_adapt(smoke);
      } else {
        throw std::invalid_argument("unknown --workload '" + workload + "'");
      }
      if (trace) {
        perfbench::register_traced_allocators(w.schemes);
        perfbench::register_traced_backend();
      }
      m = run_grid(std::move(w), seed, jobs, trace, out_path);
      effective_jobs = std::min(jobs, m.cells);
    }
    // Traced rows carry the "trace@" prefix once per row; report the size of
    // the row stream as the untraced run writes it.
    if (trace) m.out_bytes -= m.counts.rows * std::string(perfbench::kTracePrefix).size();

    const auto& c = m.counts;
    std::ostringstream os;
    os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed << ",\"jobs\":" << jobs
       << ",\"trace\":" << (trace ? 1 : 0) << ",\"first_unit_ns\":" << m.first_unit_ns
       << ",\"construct_s\":" << number(m.construct_s) << ",\"sweep_s\":" << number(m.sweep_s)
       << ",\"cells\":" << m.cells << ",\"rows\":" << c.rows
       << ",\"skipped\":" << c.skipped << ",\"no_instance\":" << c.no_instance
       << ",\"errors\":" << c.errors << ",\"feasible_unvalidated\":" << c.feasible_unvalidated
       << ",\"out_bytes\":" << m.out_bytes << ",\"latency_ms\":[";
    for (std::size_t i = 0; i < m.latency_ms.size(); ++i) {
      os << (i ? "," : "") << number(m.latency_ms[i]);
    }
    os << "]";
    if (trace) {
      auto summary = perfbench::summarize(kAllSchemes, effective_jobs);
      auto& layers = summary.metrics;
      double core_s = 0.0;
      for (const auto& name : kAllSchemes) {
        const std::string key = "core." + perfbench::metric_key(name) + ".";
        core_s += layers[key + "s"];
        const auto skipped = c.skipped_by_scheme.find(traced(name, trace));
        layers[key + "skipped"] =
            skipped == c.skipped_by_scheme.end() ? 0.0 : double(skipped->second);
      }
      layers["gen.materialize.calls"] = double(m.materialize_calls);
      layers["gen.materialize.s"] = m.materialize_s;
      layers["gen.no_instance"] = double(m.materialize_failed);
      layers["sim.switches"] = c.switches;
      layers["sim.denied_dwell"] = c.denied_dwell;
      layers["sim.denied_budget"] = c.denied_budget;
      layers["exp.construct.s"] = m.construct_s;
      layers["io.out_bytes"] = double(m.out_bytes);
      // Share of the workers' capacity (for point-queries: of the summed
      // query latencies) spent outside allocator and metric spans.
      double capacity = double(effective_jobs) * m.sweep_s;
      if (workload == "point-queries") {
        capacity = 0.0;
        for (const double ms : m.latency_ms) capacity += 1e-3 * ms;
      }
      layers["exp.outside_alloc_metric_frac"] =
          capacity > 0.0 ? 1.0 - (core_s + layers["sim.metric.s"]) / capacity : 0.0;
      os << ",\"layers\":{";
      bool first = true;
      for (const auto& [name, value] : layers) {
        os << (first ? "" : ",") << "\"" << name << "\":" << number(value);
        first = false;
      }
      os << "},\"reconcile_error\":" << number(summary.reconcile_error)
         << ",\"worker_threads\":" << summary.worker_threads << ",\"trace_problem\":\""
         << hexp::json_escape(summary.problem) << "\"";
    }
    os << "}\n";
    std::cout << os.str();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sweepbench: " << e.what() << "\n";
    return 2;
  }
}
