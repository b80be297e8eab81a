#include "exp/metrics.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/mode_table.h"
#include "sim/slack_profile.h"
#include "stats/summary.h"
#include "util/units.h"

namespace hydra::exp {

namespace {

/// Canonical parameter strings for RowMetric::identity — every knob that
/// changes the metric's VALUES must appear, or the sweep fingerprint cannot
/// tell two configurations apart (and a shard merge would silently mix
/// them).
std::string controller_identity(const sim::ModeControllerConfig& config) {
  return "ctl(p=" + sim::resolve_policy(config.policy) +
         ",w=" + std::to_string(config.slack_window) +
         ",up=" + format_double(config.tighten_threshold) +
         ",down=" + format_double(config.relax_threshold) +
         ",dwell=" + std::to_string(config.min_dwell) +
         ",budget=" + std::to_string(config.switch_budget) +
         ",levels=" + std::to_string(config.num_levels) +
         ",boost=" + std::to_string(config.boost_window) + ")";
}

enum class PeriodMode { kBest, kMin, kAdapted };

/// The tolerance (relative and absolute) of a period ON a mode boundary.
constexpr double kModeTolerance = 1e-9;

PeriodMode mode_of(const core::TaskPlacement& placement, const rt::SecurityTask& task) {
  if (util::approx_equal(placement.period, task.period_des, kModeTolerance, kModeTolerance)) {
    return PeriodMode::kBest;
  }
  if (util::approx_equal(placement.period, task.period_max, kModeTolerance, kModeTolerance)) {
    return PeriodMode::kMin;
  }
  return PeriodMode::kAdapted;
}

double count_mode(const core::Instance& instance, const core::DesignPoint& point,
                  PeriodMode mode) {
  std::size_t count = 0;
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    if (mode_of(point.allocation.placements[s], instance.security_tasks[s]) == mode) {
      ++count;
    }
  }
  return static_cast<double>(count);
}

}  // namespace

namespace {

using util::same_bits;

/// Everything the adaptive metric family reads off one row, computed in one
/// pass so N hooks cost one simulation bundle, not N.
struct AdaptiveRowResults {
  double adaptive_mean = 0.0;
  double adaptive_p95 = 0.0;
  double switches = 0.0;
  double adapted_residency = 0.0;
  double denied_dwell = 0.0;
  double denied_budget = 0.0;
  double static_mean = 0.0;
  double min_mode_mean = 0.0;
  double global_mean = 0.0;
};

double mean_of(const sim::DetectionResult& result, const char* what) {
  if (result.deadline_misses != 0) {
    throw std::runtime_error(std::string(what) + ": simulation missed deadlines");
  }
  if (result.detection_ms.empty()) {
    throw std::runtime_error(std::string(what) + ": no attack was ever detected");
  }
  return stats::summarize(result.detection_ms).mean;
}

bool same_input(const rt::RtTask& a, const rt::RtTask& b) {
  return a.name == b.name && same_bits(a.wcet, b.wcet) && same_bits(a.period, b.period) &&
         same_bits(a.deadline, b.deadline);
}

bool same_input(const rt::SecurityTask& a, const rt::SecurityTask& b) {
  return a.name == b.name && same_bits(a.wcet, b.wcet) &&
         same_bits(a.period_des, b.period_des) && same_bits(a.period_max, b.period_max) &&
         same_bits(a.weight, b.weight);
}

/// The two placement fields the simulations read (the tightness is derived).
bool same_input(const core::TaskPlacement& a, const core::TaskPlacement& b) {
  return a.core == b.core && same_bits(a.period, b.period);
}

template <typename T>
bool same_inputs(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const T& x, const T& y) { return same_input(x, y); });
}

/// What every detection run of a row reads, held by value: the instance, the
/// committed placements and RT partition, and the detection config.
struct DetectionInputs {
  std::vector<core::TaskPlacement> placements;
  std::vector<std::size_t> rt_core_of;
  core::Instance instance;
  sim::DetectionConfig detection;

  DetectionInputs(const core::Instance& instance, const core::DesignPoint& point,
                  const sim::DetectionConfig& detection)
      : placements(point.allocation.placements),
        rt_core_of(point.allocation.rt_partition.core_of),
        instance(instance),
        detection(detection) {}

  /// Every field equal, doubles bit for bit.
  bool matches(const core::Instance& other, const core::DesignPoint& point,
               const sim::DetectionConfig& det) const {
    return detection.horizon == det.horizon && detection.trials == det.trials &&
           detection.seed == det.seed && detection.scope == det.scope &&
           same_inputs(placements, point.allocation.placements) &&
           rt_core_of == point.allocation.rt_partition.core_of &&
           instance.num_cores == other.num_cores &&
           same_inputs(instance.rt_tasks, other.rt_tasks) &&
           same_inputs(instance.security_tasks, other.security_tasks);
  }
};

/// Everything that determines a row's bundle: the scheme, the detection
/// inputs, and every config field that feeds the simulations, with the
/// controller policy resolved ("" runs the default), so "" and an explicit
/// "hysteresis" share one memo entry.  The name suffix only labels the
/// hooks and is left out.
struct AdaptiveRowKey {
  std::string scheme;
  DetectionInputs inputs;
  sim::ModeControllerConfig controller;
  bool include_static = false;
  bool include_min_mode = false;
  bool include_global = false;

  AdaptiveRowKey(const core::Instance& instance, const core::DesignPoint& point,
                 const AdaptiveMetricsConfig& config)
      : scheme(point.scheme),
        inputs(instance, point, config.detection),
        controller(config.controller),
        include_static(config.include_static),
        include_min_mode(config.include_min_mode),
        include_global(config.include_global) {
    controller.policy = sim::resolve_policy(controller.policy);
  }

  /// True when (instance, point, config) would compute this key's bundle:
  /// every field equal, doubles bit for bit.
  bool matches(const core::Instance& other, const core::DesignPoint& point,
               const AdaptiveMetricsConfig& config) const {
    const sim::ModeControllerConfig& ctl = config.controller;
    return controller.policy == sim::resolve_policy(ctl.policy) &&
           controller.slack_window == ctl.slack_window &&
           same_bits(controller.tighten_threshold, ctl.tighten_threshold) &&
           same_bits(controller.relax_threshold, ctl.relax_threshold) &&
           controller.min_dwell == ctl.min_dwell &&
           controller.switch_budget == ctl.switch_budget &&
           controller.num_levels == ctl.num_levels &&
           controller.boost_window == ctl.boost_window &&
           include_static == config.include_static &&
           include_min_mode == config.include_min_mode &&
           include_global == config.include_global && scheme == point.scheme &&
           inputs.matches(other, point, config.detection);
  }
};

/// Minimum-mode runs this thread has simulated: the memo's misses.
thread_local std::size_t min_mode_runs = 0;

/// The row's minimum-mode detection run, memoized per thread and size 1 like
/// the bundle below: the min-mode baseline and every inert policy family of
/// the row read this one run.  A pure function of its key, so sharing it
/// changes no value.
const sim::DetectionResult& cached_min_mode(const core::Instance& instance,
                                            const core::DesignPoint& point,
                                            const sim::DetectionConfig& detection,
                                            sim::RtSlackProfileCache& profiles) {
  thread_local std::optional<DetectionInputs> cached_key;
  thread_local sim::DetectionResult cached_result;
  if (!cached_key.has_value() || !cached_key->matches(instance, point, detection)) {
    ++min_mode_runs;
    cached_result = sim::measure_detection_times(
        instance, core::min_mode_allocation(instance, point.allocation), detection,
        &profiles);
    cached_key.emplace(instance, point, detection);
  }
  return cached_result;
}

AdaptiveRowResults compute_adaptive_row(const core::Instance& instance,
                                        const core::DesignPoint& point,
                                        const AdaptiveMetricsConfig& config) {
  // One RT profile per row: every run below, and the adaptive runs of the
  // row's other policy families, schedule their monitors on the idle time of
  // the same RT schedule.  Per thread and size 1 like the bundle memo; the
  // profile is a pure function of its key, so sharing it changes no value.
  thread_local sim::RtSlackProfileCache rt_profiles;
  AdaptiveRowResults out;
  // The runs go adaptive, static, min-mode, global, each failure labelled by
  // its run, so an error row's note names the run that failed first.
  if (sim::is_inert_policy(config.controller.policy)) {
    // The inert run is the minimum-mode run job for job: its latency is the
    // shared run's, and it never switches, is never denied and never leaves
    // minimum mode.
    const sim::DetectionResult& min_mode =
        cached_min_mode(instance, point, config.detection, rt_profiles);
    out.adaptive_mean = mean_of(min_mode, "adaptive");
    out.adaptive_p95 = stats::percentile(min_mode.detection_ms, 0.95);
  } else {
    const auto adaptive = sim::measure_detection_times_adaptive(
        instance, point.allocation, config.detection, config.controller, &rt_profiles);
    out.adaptive_mean = mean_of(adaptive.detection, "adaptive");
    out.adaptive_p95 = stats::percentile(adaptive.detection.detection_ms, 0.95);
    out.switches = static_cast<double>(adaptive.modes.total_switches());
    out.adapted_residency = adaptive.modes.mean_adapted_fraction(adaptive.switchable_tasks);
    out.denied_dwell = static_cast<double>(adaptive.modes.total_denied_dwell());
    out.denied_budget = static_cast<double>(adaptive.modes.total_denied_budget());
  }
  if (config.include_static) {
    out.static_mean = mean_of(
        sim::measure_detection_times(instance, point.allocation, config.detection,
                                     &rt_profiles),
        "static");
  }
  if (config.include_min_mode) {
    out.min_mode_mean =
        mean_of(cached_min_mode(instance, point, config.detection, rt_profiles), "min-mode");
  }
  if (config.include_global) {
    out.global_mean = mean_of(
        sim::measure_detection_times_global(instance, point.allocation, config.detection,
                                            &rt_profiles),
        "global");
  }
  return out;
}

/// Bundles this thread has computed: the memo's misses.
thread_local std::size_t bundles_computed = 0;

/// Memoized bundle lookup.  The cache is thread_local and size 1: the engine
/// invokes a row's metric hooks back-to-back on the worker that owns the row,
/// so consecutive hooks hit while concurrent workers never contend.  Values
/// are pure functions of the key, so caching cannot perturb determinism.
const AdaptiveRowResults& cached_adaptive_row(const core::Instance& instance,
                                              const core::DesignPoint& point,
                                              const AdaptiveMetricsConfig& config) {
  thread_local std::optional<AdaptiveRowKey> cached_key;
  thread_local AdaptiveRowResults cached_results;
  if (!cached_key.has_value() || !cached_key->matches(instance, point, config)) {
    ++bundles_computed;
    cached_results = compute_adaptive_row(instance, point, config);
    cached_key.emplace(instance, point, config);
  }
  return cached_results;
}

}  // namespace

std::size_t adaptive_bundles_computed() { return bundles_computed; }

std::size_t min_mode_runs_computed() { return min_mode_runs; }

std::vector<RowMetric> adaptive_detection_metrics(const AdaptiveMetricsConfig& config) {
  // Fail at construction, not first evaluation: a bench wiring up an
  // impossible controller should die before the sweep starts.
  config.controller.validate();
  std::vector<RowMetric> metrics;
  const std::string identity =
      detection_metric_identity(config.detection) + controller_identity(config.controller);
  const auto add = [&](std::string name, double AdaptiveRowResults::*field,
                       bool suffixed = true) {
    // The suffix marks the policy family; the baselines are policy-free and
    // keep their canonical names (a bench includes them on one family only).
    if (suffixed) name += config.name_suffix;
    metrics.push_back(RowMetric{
        std::move(name),
        [config, field](const core::Instance& instance, const core::DesignPoint& point) {
          return cached_adaptive_row(instance, point, config).*field;
        },
        identity});
  };
  add("adaptive_mean_detection_ms", &AdaptiveRowResults::adaptive_mean);
  add("adaptive_p95_detection_ms", &AdaptiveRowResults::adaptive_p95);
  add("adaptive_switches", &AdaptiveRowResults::switches);
  add("adapted_residency", &AdaptiveRowResults::adapted_residency);
  add("adaptive_denied_dwell", &AdaptiveRowResults::denied_dwell);
  add("adaptive_denied_budget", &AdaptiveRowResults::denied_budget);
  if (config.include_static) {
    add("static_mean_detection_ms", &AdaptiveRowResults::static_mean, false);
  }
  if (config.include_min_mode) {
    add("min_mode_mean_detection_ms", &AdaptiveRowResults::min_mode_mean, false);
  }
  if (config.include_global) {
    add("global_mean_detection_ms", &AdaptiveRowResults::global_mean, false);
  }
  return metrics;
}

std::string detection_metric_identity(const sim::DetectionConfig& config) {
  return "det(h=" + std::to_string(config.horizon) +
         ",n=" + std::to_string(config.trials) +
         ",seed=" + std::to_string(config.seed) +
         ",scope=" + std::to_string(static_cast<int>(config.scope)) + ")";
}

RowMetric global_detection_metric(const sim::DetectionConfig& config, std::string name) {
  return RowMetric{
      std::move(name),
      [config](const core::Instance& instance, const core::DesignPoint& point) {
        return mean_of(
            sim::measure_detection_times_global(instance, point.allocation, config),
            "global");
      },
      detection_metric_identity(config)};
}

std::vector<RowMetric> period_mode_metrics() {
  // Constant, but still in the identity: existing checkpoints' fingerprints
  // include it.
  const std::string identity = "tol(" + format_double(kModeTolerance) + ")";
  return {
      RowMetric{"best_mode_tasks",
                [](const core::Instance& instance, const core::DesignPoint& point) {
                  return count_mode(instance, point, PeriodMode::kBest);
                },
                identity},
      RowMetric{"min_mode_tasks",
                [](const core::Instance& instance, const core::DesignPoint& point) {
                  return count_mode(instance, point, PeriodMode::kMin);
                },
                identity},
      RowMetric{"adapted_tasks",
                [](const core::Instance& instance, const core::DesignPoint& point) {
                  return count_mode(instance, point, PeriodMode::kAdapted);
                },
                identity},
  };
}

}  // namespace hydra::exp
